// Per-function lockset extraction for the contention rule pack.
// Built on the srclint token/structural model: for every recovered function
// definition we track which mutexes are held at each acquisition, each call
// site, and each direct blocking seam (barrier arrive_and_wait, condition
// wait). The graph layer (graph.hpp) canonicalizes names across TUs and
// closes over the call graph.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "srclint/model.hpp"
#include "srclint/source.hpp"

namespace pasched::contend {

/// A mutex-typed data member: the declaration behind a "Class.member" node.
struct MutexMember {
  std::string cls;
  std::string member;
  int line = 0;
  bool seam = false;  // declared as util::SeamMutex (an instrumented seam)
};

/// One lock acquisition inside a function body.
struct Acquisition {
  std::string mutex;  // name as written (member/local; canonicalized later)
  int line = 0;
  std::vector<std::string> held;  // locks already held, as written
};

/// One call expression with the locks held at the call.
struct CallSite {
  std::string callee;  // unqualified name
  int line = 0;
  std::vector<std::string> held;
};

/// A direct blocking seam (arrive_and_wait / cv.wait family).
struct BlockingUse {
  std::string what;  // the blocking member name
  int line = 0;
  std::vector<std::string> held;
};

struct FunctionLocks {
  std::string name;  // qualified when written out-of-line
  int line = 0;
  std::vector<Acquisition> acquisitions;
  std::vector<CallSite> calls;
  std::vector<BlockingUse> blocking;
};

struct FileLocks {
  std::string path;
  std::vector<MutexMember> mutex_members;
  std::vector<FunctionLocks> functions;
};

/// Extracts the lock structure of one file: mutex member declarations from
/// every class body, and per-function acquisition/call/blocking records with
/// held-set tracking (RAII guards scoped to their enclosing block, manual
/// lock()/unlock() pairs, unique_lock variables mapped to their mutex).
[[nodiscard]] FileLocks extract_locks(const srclint::SourceFile& f);

}  // namespace pasched::contend

#include "scale/lookahead.hpp"

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <vector>

namespace pasched::scale {

using sim::Duration;

PairSpread pair_spread(const sim::PairLookahead& la) {
  std::vector<std::int64_t> v;
  v.reserve(la.bounds.size());
  for (int a = 0; a < la.shards; ++a)
    for (int b = 0; b < la.shards; ++b)
      if (a != b) v.push_back(la.at(a, b).count());
  PairSpread s;
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  s.min = Duration::ns(v.front());
  s.median = Duration::ns(v[v.size() / 2]);
  s.max = Duration::ns(v.back());
  return s;
}

std::string certificate_json(const sim::PairLookahead& la) {
  const PairSpread spread = pair_spread(la);
  std::ostringstream os;
  os << "{\n"
     << "  \"certificate\": \"pasched lookahead matrix v1\",\n"
     << "  \"nodes\": " << (la.has_pairs() ? la.shards - 1 : 1) << ",\n"
     << "  \"shards\": " << la.shards << ",\n"
     << "  \"hub_shard\": " << la.hub_shard() << ",\n"
     << "  \"global_lookahead_ns\": " << la.global.count() << ",\n"
     << "  \"min_pair_ns\": " << spread.min.count() << ",\n"
     << "  \"median_pair_ns\": " << spread.median.count() << ",\n"
     << "  \"max_pair_ns\": " << spread.max.count() << ",\n"
     << "  \"bounds_ns\": [\n";
  for (int a = 0; a < la.shards; ++a) {
    os << "    [";
    for (int b = 0; b < la.shards; ++b)
      os << la.at(a, b).count() << (b + 1 < la.shards ? ", " : "");
    os << "]" << (a + 1 < la.shards ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  return os.str();
}

}  // namespace pasched::scale

#include "spans.hpp"

#include <cstdio>

namespace ledger {

bool SpanRecorder::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::vector<std::int64_t> self = self_times(spans_);
  std::fprintf(f, "{\"unit\":\"ns\",\"spans\":[\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "%s{\"id\":%zu,\"name\":\"%s\",\"parent\":%lld,"
                 "\"start\":%lld,\"end\":%lld,\"self\":%lld}",
                 i == 0 ? "" : ",\n", i, s.name.c_str(),
                 static_cast<long long>(s.parent),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(self[i]));
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

}  // namespace ledger

#include "amr/serve/job_protocol.hpp"

#include <cctype>
#include <charconv>
#include <cstring>
#include <utility>

namespace amr::serve {

namespace {

/// Cursor over the flat-JSON job line.
struct Cursor {
  const char* p;
  const char* end;

  void skip_ws() {
    while (p < end && std::isspace(static_cast<unsigned char>(*p))) ++p;
  }
  bool eat(char c) {
    skip_ws();
    if (p < end && *p == c) {
      ++p;
      return true;
    }
    return false;
  }
};

bool parse_json_string(Cursor& c, std::string& out, std::string& err) {
  if (!c.eat('"')) {
    err = "expected '\"'";
    return false;
  }
  out.clear();
  while (c.p < c.end && *c.p != '"') {
    char ch = *c.p++;
    if (ch == '\\') {
      if (c.p >= c.end) break;
      const char esc = *c.p++;
      switch (esc) {
        case '"': ch = '"'; break;
        case '\\': ch = '\\'; break;
        case '/': ch = '/'; break;
        case 'n': ch = '\n'; break;
        case 't': ch = '\t'; break;
        default:
          err = std::string("unsupported escape \\") + esc;
          return false;
      }
    }
    out += ch;
  }
  if (c.p >= c.end) {
    err = "unterminated string";
    return false;
  }
  ++c.p;  // closing quote
  return true;
}

bool parse_scalar(Cursor& c, JobValue& out, std::string& err) {
  c.skip_ws();
  if (c.p >= c.end) {
    err = "expected a value";
    return false;
  }
  if (*c.p == '"') {
    std::string str;
    if (!parse_json_string(c, str, err)) return false;
    out = std::move(str);
    return true;
  }
  const std::size_t left = static_cast<std::size_t>(c.end - c.p);
  if (left >= 4 && std::strncmp(c.p, "true", 4) == 0) {
    out = true;
    c.p += 4;
    return true;
  }
  if (left >= 5 && std::strncmp(c.p, "false", 5) == 0) {
    out = false;
    c.p += 5;
    return true;
  }
  std::int64_t num = 0;
  const auto [ptr, ec] = std::from_chars(c.p, c.end, num);
  if (ec != std::errc{} || ptr == c.p) {
    err = "expected a string, integer, or boolean";
    return false;
  }
  out = num;
  c.p = ptr;
  return true;
}

/// Apply one key/value to the spec; "" on success, else the error.
std::string apply_field(JobSpec& spec, const std::string& key,
                        const JobValue& v) {
  const JobField* field = find_job_field(key);
  if (field == nullptr) return "unknown field \"" + key + "\"";
  const std::string err = set_job_field(spec, *field, v);
  return err.empty() ? err : "field \"" + key + "\" " + err;
}

ServeRequest parse_job_object(const std::string& line) {
  ServeRequest req;
  req.kind = ServeRequest::Kind::kError;  // until proven otherwise
  Cursor c{line.data(), line.data() + line.size()};
  std::string err;
  if (!c.eat('{')) {
    req.error = "job line must be a JSON object";
    return req;
  }
  bool first = true;
  while (true) {
    if (c.eat('}')) break;
    if (!first && !c.eat(',')) {
      req.error = "expected ',' or '}'";
      return req;
    }
    if (c.eat('}')) break;  // tolerate a trailing comma
    first = false;
    std::string key;
    if (!parse_json_string(c, key, err)) {
      req.error = err;
      return req;
    }
    if (!c.eat(':')) {
      req.error = "expected ':' after \"" + key + "\"";
      return req;
    }
    JobValue value;
    if (!parse_scalar(c, value, err)) {
      req.error = "field \"" + key + "\": " + err;
      return req;
    }
    err = apply_field(req.job, key, value);
    if (!err.empty()) {
      req.error = err;
      return req;
    }
  }
  c.skip_ws();
  if (c.p != c.end) {
    req.error = "trailing characters after job object";
    return req;
  }
  req.kind = ServeRequest::Kind::kJob;
  return req;
}

}  // namespace

ServeRequest parse_serve_line(const std::string& line) {
  ServeRequest req;
  std::size_t at = 0;
  while (at < line.size() &&
         std::isspace(static_cast<unsigned char>(line[at])))
    ++at;
  if (at == line.size() || line[at] == '#') return req;  // kNone
  if (line[at] == '{') return parse_job_object(line.substr(at));

  // Word commands: `query <id> <text>` | `stats`.
  const std::size_t word_end = line.find_first_of(" \t", at);
  const std::string word = line.substr(at, word_end - at);
  if (word == "stats") {
    req.kind = ServeRequest::Kind::kStats;
    return req;
  }
  if (word == "query") {
    std::size_t id_at = line.find_first_not_of(" \t", word_end);
    if (id_at == std::string::npos) {
      req.kind = ServeRequest::Kind::kError;
      req.error = "usage: query <job-id> select ...";
      return req;
    }
    const std::size_t id_end = line.find_first_of(" \t", id_at);
    req.query_job = line.substr(id_at, id_end - id_at);
    const std::size_t text_at = line.find_first_not_of(" \t", id_end);
    if (text_at == std::string::npos) {
      req.kind = ServeRequest::Kind::kError;
      req.error = "usage: query <job-id> select ...";
      return req;
    }
    req.kind = ServeRequest::Kind::kQuery;
    req.query_text = line.substr(text_at);
    return req;
  }
  req.kind = ServeRequest::Kind::kError;
  req.error = "unrecognized request \"" + word +
              "\" (job object, query, or stats)";
  return req;
}

}  // namespace amr::serve

#include "amr/serve/query_endpoint.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstring>
#include <string_view>
#include <vector>

#include "amr/telemetry/query.hpp"

namespace amr::serve {

namespace {

std::vector<std::string> tokenize(const std::string& text) {
  std::vector<std::string> out;
  std::string cur;
  for (const char ch : text) {
    if (std::isspace(static_cast<unsigned char>(ch))) {
      if (!cur.empty()) out.push_back(std::move(cur)), cur.clear();
    } else if (ch == '(' || ch == ')' || ch == ',') {
      if (!cur.empty()) out.push_back(std::move(cur)), cur.clear();
      out.emplace_back(1, ch);
    } else {
      cur += ch;
    }
  }
  if (!cur.empty()) out.push_back(std::move(cur));
  return out;
}

struct TokenStream {
  std::vector<std::string> toks;
  std::size_t at = 0;

  bool done() const { return at >= toks.size(); }
  const std::string& peek() const {
    static const std::string kEnd;
    return done() ? kEnd : toks[at];
  }
  std::string next() { return done() ? std::string() : toks[at++]; }
  bool accept(const char* word) {
    if (!done() && toks[at] == word) {
      ++at;
      return true;
    }
    return false;
  }
};

bool agg_from_name(const std::string& name, Agg& out) {
  if (name == "count") out = Agg::kCount;
  else if (name == "sum") out = Agg::kSum;
  else if (name == "mean") out = Agg::kMean;
  else if (name == "min") out = Agg::kMin;
  else if (name == "max") out = Agg::kMax;
  else if (name == "stddev") out = Agg::kStddev;
  else if (name == "p50") out = Agg::kP50;
  else if (name == "p95") out = Agg::kP95;
  else if (name == "p99") out = Agg::kP99;
  else return false;
  return true;
}

enum class CmpOp : std::uint8_t { kEq, kNe, kLt, kLe, kGt, kGe };

bool op_from_name(const std::string& name, CmpOp& out) {
  if (name == "==") out = CmpOp::kEq;
  else if (name == "!=") out = CmpOp::kNe;
  else if (name == "<") out = CmpOp::kLt;
  else if (name == "<=") out = CmpOp::kLe;
  else if (name == ">") out = CmpOp::kGt;
  else if (name == ">=") out = CmpOp::kGe;
  else return false;
  return true;
}

/// Whether the literal `text` (strtod syntax, finite) is exactly the
/// integer `n`, |n| <= 2^53. Decided on its significant digits and their
/// scale, never through a rounding parse: `9007199254740993`,
/// `9.007199254740993e15` and `9007199254740992.5` all parse as 2^53.
bool literal_equals(std::string_view text, std::int64_t n) {
  std::size_t at = 0;
  bool neg = false;
  if (at < text.size() && (text[at] == '+' || text[at] == '-'))
    neg = text[at++] == '-';
  const bool hex = text.size() - at > 1 && text[at] == '0' &&
                   (text[at + 1] == 'x' || text[at + 1] == 'X');
  if (hex) at += 2;
  // The literal is digits * base^scale (hex: digits * 2^scale).
  std::string digits;
  std::int64_t scale = 0;
  bool point = false;
  for (; at < text.size(); ++at) {
    const auto c = static_cast<unsigned char>(text[at]);
    if (c == '.') {
      point = true;
      continue;
    }
    if (!(hex ? std::isxdigit(c) : std::isdigit(c))) break;
    if (!digits.empty() || c != '0') digits += static_cast<char>(c);
    if (point) scale -= hex ? 4 : 1;
  }
  if (at < text.size()) {  // exponent: e[+-]digits, or p[+-]digits (hex)
    ++at;
    const bool eneg = at < text.size() && text[at] == '-';
    if (at < text.size() && (text[at] == '+' || text[at] == '-')) ++at;
    std::int64_t e = 0;
    for (; at < text.size(); ++at)
      e = std::min<std::int64_t>(e * 10 + (text[at] - '0'), 1 << 20);
    scale += eneg ? -e : e;
  }
  while (!digits.empty() && digits.back() == '0') {
    digits.pop_back();
    scale += hex ? 4 : 1;
  }
  if (digits.empty()) return n == 0;
  if (neg != (n < 0)) return false;
  std::uint64_t m = n < 0 ? 0 - static_cast<std::uint64_t>(n)
                          : static_cast<std::uint64_t>(n);
  if (!hex) {
    // No trailing zeros left: an integer only at scale >= 0.
    std::int64_t mscale = 0;
    while (m != 0 && m % 10 == 0) m /= 10, ++mscale;
    return scale == mscale && digits == std::to_string(m);
  }
  // Past 15 hex digits (>= 2^60, at most 3 trailing zero bits) the
  // literal is no integer up to 2^53.
  if (digits.size() > 15) return false;
  std::uint64_t d = 0;
  std::from_chars(digits.data(), digits.data() + digits.size(), d, 16);
  if (scale >= 0) return scale <= 53 && (d << scale) >> scale == d &&
                         (d << scale) == m;
  if (scale <= -64) return false;
  const auto k = static_cast<unsigned>(-scale);
  return (d & ((std::uint64_t{1} << k) - 1)) == 0 && (d >> k) == m;
}

/// Whether an integer column compares exactly against the literal
/// `text`, parsed as `value`, for every column value up to 2^53 (each
/// one a double). A double with a fraction has no integer between it and
/// the literal; one beyond 2^53 has every such value on the literal's
/// side. An integer-valued double up to 2^53 must be the literal itself.
bool exact_against_integers(const std::string& text, double value) {
  constexpr double kExact = 9007199254740992.0;  // 2^53
  if (value != std::trunc(value) || std::fabs(value) > kExact) return true;
  return literal_equals(text, static_cast<std::int64_t>(value));
}

struct Filter {
  std::string col;
  CmpOp op = CmpOp::kEq;
  double value = 0.0;

  bool matches(double x) const {
    switch (op) {
      case CmpOp::kEq: return x == value;
      case CmpOp::kNe: return x != value;
      case CmpOp::kLt: return x < value;
      case CmpOp::kLe: return x <= value;
      case CmpOp::kGt: return x > value;
      case CmpOp::kGe: return x >= value;
    }
    return false;
  }
};

}  // namespace

std::string run_table_query(const JobTables& tables, const std::string& text,
                            std::string& out) {
  TokenStream ts{tokenize(text)};
  if (!ts.accept("select")) return "expected 'select'";

  // Selection: '*' or an aggregate list.
  bool star = false;
  std::vector<AggSpec> aggs;
  if (ts.accept("*")) {
    star = true;
  } else {
    while (true) {
      const std::string fn = ts.next();
      Agg agg;
      if (!agg_from_name(fn, agg))
        return "unknown aggregate '" + fn +
               "' (count sum mean min max stddev p50 p95 p99)";
      AggSpec spec;
      spec.agg = agg;
      if (agg == Agg::kCount) {
        spec.as = "count";
      } else {
        if (!ts.accept("(")) return "expected '(' after '" + fn + "'";
        spec.column = ts.next();
        if (spec.column.empty() || spec.column == ")")
          return "expected a column inside '" + fn + "(...)'";
        if (!ts.accept(")")) return "expected ')' after '" + spec.column + "'";
        spec.as = fn + "_" + spec.column;
      }
      if (ts.accept("as")) {
        spec.as = ts.next();
        if (spec.as.empty()) return "expected a name after 'as'";
      }
      aggs.push_back(std::move(spec));
      if (!ts.accept(",")) break;
    }
  }

  if (!ts.accept("from")) return "expected 'from'";
  const std::string table_name = ts.next();
  const Table* table = nullptr;
  if (table_name == "phases") table = tables.phases;
  else if (table_name == "comm") table = tables.comm;
  else if (table_name == "blocks") table = tables.blocks;
  else if (table_name == "placement") table = tables.placement;
  else
    return "unknown table '" + table_name +
           "' (phases | comm | blocks | placement)";
  if (table == nullptr)
    return "table '" + table_name +
           "' was not collected for this job (telemetry off)";

  std::vector<Filter> filters;
  if (ts.accept("where")) {
    do {
      Filter f;
      f.col = ts.next();
      const std::string op = ts.next();
      if (!op_from_name(op, f.op))
        return "unknown operator '" + op + "' in where clause";
      const std::string value = ts.next();
      const char* b = value.c_str();
      char* e = nullptr;
      f.value = std::strtod(b, &e);
      if (e == b || *e != '\0')
        return "expected a number in where clause, got '" + value + "'";
      if (!std::isfinite(f.value))
        return "non-finite number '" + value + "' in where clause";
      const int col = table->col_index(f.col);
      if (col < 0) return "no column '" + f.col + "' in " + table_name;
      if (table->col_type(static_cast<std::size_t>(col)) == ColType::kI64 &&
          !exact_against_integers(value, f.value))
        return "number '" + value + "' cannot compare exactly against " +
               "integer column '" + f.col + "' (it rounds to " +
               std::to_string(static_cast<std::int64_t>(f.value)) + ")";
      filters.push_back(std::move(f));
    } while (ts.accept("and"));
  }

  std::vector<std::string> group_keys;
  if (ts.accept("group")) {
    if (!ts.accept("by")) return "expected 'by' after 'group'";
    do {
      const std::string key = ts.next();
      if (key.empty()) return "expected a column after 'group by'";
      if (table->col_index(key) < 0)
        return "no column '" + key + "' in " + table_name;
      group_keys.push_back(key);
    } while (ts.accept(","));
  }
  if (!star && group_keys.empty())
    return "aggregates require 'group by' (use 'select *' for raw rows)";
  if (star && !group_keys.empty())
    return "'select *' cannot be grouped (name aggregates instead)";
  // The query engine aborts on what it cannot group or aggregate, so
  // every column the grouping touches is checked here first.
  std::vector<std::string> out_cols;
  for (const std::string& key : group_keys) {
    const auto idx = static_cast<std::size_t>(table->col_index(key));
    if (table->col_type(idx) != ColType::kI64)
      return "cannot group by '" + key + "': not an integer column";
    out_cols.push_back(key);
  }
  for (const AggSpec& spec : aggs) {
    if (spec.agg != Agg::kCount && table->col_index(spec.column) < 0)
      return "no column '" + spec.column + "' in " + table_name;
    out_cols.push_back(spec.as);
  }
  for (std::size_t i = 0; i < out_cols.size(); ++i)
    for (std::size_t j = 0; j < i; ++j)
      if (out_cols[i] == out_cols[j])
        return "duplicate result column '" + out_cols[i] +
               "' (rename with 'as')";

  std::string order_col;
  bool order_desc = false;
  if (ts.accept("order")) {
    if (!ts.accept("by")) return "expected 'by' after 'order'";
    order_col = ts.next();
    if (order_col.empty()) return "expected a column after 'order by'";
    order_desc = ts.accept("desc");
  }
  std::int64_t limit = -1;
  if (ts.accept("limit")) {
    const std::string n = ts.next();
    const auto [p, ec] = std::from_chars(n.data(), n.data() + n.size(),
                                         limit);
    if (ec != std::errc{} || p != n.data() + n.size() || limit < 0)
      return "expected a row count after 'limit'";
  }
  if (!ts.done()) return "trailing tokens after '" + ts.peek() + "'";

  Query query(*table);
  for (const Filter& f : filters)
    query.filter(f.col, [f](double x) { return f.matches(x); });

  Table result = star ? query.run()
                      : query.group_by(group_keys).agg(std::move(aggs));
  // Ordering/limit apply to whichever table the selection produced.
  Query shaper(result);
  if (!order_col.empty()) {
    if (result.col_index(order_col) < 0)
      return "no column '" + order_col + "' to order by";
    shaper.sort_by(order_col, order_desc);
  }
  if (limit >= 0) shaper.limit(static_cast<std::size_t>(limit));
  const Table shaped = shaper.run();
  out += shaped.format(shaped.num_rows());
  return "";
}

}  // namespace amr::serve

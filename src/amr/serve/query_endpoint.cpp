#include "amr/serve/query_endpoint.hpp"

#include <cctype>
#include <charconv>
#include <cstring>
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

struct Filter {
  std::string col;
  std::string op;
  double value = 0.0;

  bool matches(double x) const {
    if (op == "==") return x == value;
    if (op == "!=") return x != value;
    if (op == "<") return x < value;
    if (op == "<=") return x <= value;
    if (op == ">") return x > value;
    return x >= value;  // ">="
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
  else if (table_name == "shards") table = tables.shards;
  else if (table_name == "placement") table = tables.placement;
  else
    return "unknown table '" + table_name +
           "' (phases | comm | blocks | shards | placement)";
  if (table == nullptr)
    return "table '" + table_name +
           "' was not collected for this job (telemetry off)";

  std::vector<Filter> filters;
  if (ts.accept("where")) {
    do {
      Filter f;
      f.col = ts.next();
      f.op = ts.next();
      if (f.op != "==" && f.op != "!=" && f.op != "<" && f.op != "<=" &&
          f.op != ">" && f.op != ">=")
        return "unknown operator '" + f.op + "' in where clause";
      const std::string value = ts.next();
      const char* b = value.c_str();
      char* e = nullptr;
      f.value = std::strtod(b, &e);
      if (e == b || *e != '\0')
        return "expected a number in where clause, got '" + value + "'";
      if (table->col_index(f.col) < 0)
        return "no column '" + f.col + "' in " + table_name;
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

#ifndef SFSQL_SQL_PARSER_H_
#define SFSQL_SQL_PARSER_H_

#include <string_view>

#include "common/result.h"
#include "sql/ast.h"

namespace sfsql::obs {
class Tracer;
}  // namespace sfsql::obs

namespace sfsql::sql {

/// Deepest expression nesting the parser accepts. Parentheses, function
/// arguments, subqueries, and NOT / unary-minus chains each add a level;
/// deeper input is a ParseError rather than a stack overflow.
inline constexpr int kMaxNestingDepth = 256;

/// Parses one (schema-free or full) SQL SELECT statement.
///
/// Full SQL is the degenerate case with every name exact and the FROM clause
/// populated; schema-free SQL may use `foo?`, `?x`, `?` name elements, omit FROM
/// entirely, or mention relations outside FROM (§2.1). A trailing ';' is allowed.
Result<SelectPtr> ParseSelect(std::string_view input);

/// As above, reporting the parse as a span (named "parse", with input size and
/// outcome attributes) under `parent_span` of `tracer`. A null tracer makes
/// this identical to the plain overload.
Result<SelectPtr> ParseSelect(std::string_view input, obs::Tracer* tracer,
                              int parent_span = -1);

}  // namespace sfsql::sql

#endif  // SFSQL_SQL_PARSER_H_

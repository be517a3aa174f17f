/**
 * @file
 * ASCII table printer used by the bench harnesses to render
 * paper-figure rows in aligned columns.
 */

#ifndef SMTFETCH_UTIL_TABLE_HH
#define SMTFETCH_UTIL_TABLE_HH

#include <ostream>
#include <string>
#include <vector>

namespace smt
{

/**
 * Accumulates rows of string cells and prints them with column-aligned
 * padding, a header rule, and an optional title.
 */
class TextTable
{
  public:
    explicit TextTable(std::vector<std::string> headers);

    /** Append one row; must match the header arity. */
    void addRow(std::vector<std::string> cells);

    /** Convenience: format a double with the given precision. */
    static std::string num(double v, int precision = 2);

    /** Render the table to a stream. */
    void print(std::ostream &os, const std::string &title = "") const;

  private:
    std::vector<std::string> headerRow;
    std::vector<std::vector<std::string>> rows;
};

} // namespace smt

#endif // SMTFETCH_UTIL_TABLE_HH

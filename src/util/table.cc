#include "util/table.hh"

#include <algorithm>
#include <cstdio>

#include "util/logging.hh"

namespace smt
{

TextTable::TextTable(std::vector<std::string> headers)
    : headerRow(std::move(headers))
{
}

void
TextTable::addRow(std::vector<std::string> cells)
{
    if (cells.size() != headerRow.size())
        panic("TextTable row arity %zu != header arity %zu",
              cells.size(), headerRow.size());
    rows.push_back(std::move(cells));
}

std::string
TextTable::num(double v, int precision)
{
    return csprintf("%.*f", precision, v);
}

void
TextTable::print(std::ostream &os, const std::string &title) const
{
    std::vector<size_t> widths(headerRow.size(), 0);
    for (size_t i = 0; i < headerRow.size(); ++i)
        widths[i] = headerRow[i].size();
    for (const auto &row : rows)
        for (size_t i = 0; i < row.size(); ++i)
            widths[i] = std::max(widths[i], row[i].size());

    auto print_row = [&](const std::vector<std::string> &row) {
        os << "| ";
        for (size_t i = 0; i < row.size(); ++i) {
            os << row[i];
            os << std::string(widths[i] - row[i].size(), ' ');
            os << " | ";
        }
        os << '\n';
    };

    size_t total = 1;
    for (size_t w : widths)
        total += w + 3;

    if (!title.empty())
        os << title << '\n';
    os << std::string(total, '-') << '\n';
    print_row(headerRow);
    os << std::string(total, '-') << '\n';
    for (const auto &row : rows)
        print_row(row);
    os << std::string(total, '-') << '\n';
}

} // namespace smt

#include "util/flag_value.hh"

#include <charconv>
#include <stdexcept>

#include "util/logging.hh"

namespace smt
{

std::uint64_t
parseFlagValue(const std::string &flag, const std::string &text,
               bool allow_hex)
{
    const bool hex = allow_hex && text.size() > 2 && text[0] == '0' &&
                     (text[1] == 'x' || text[1] == 'X');
    const char *first = text.data() + (hex ? 2 : 0);
    const char *last = text.data() + text.size();
    std::uint64_t value = 0;
    // from_chars takes no sign, whitespace or base prefix for an
    // unsigned type, and reports overflow instead of saturating.
    auto [end, ec] = std::from_chars(first, last, value, hex ? 16 : 10);
    const std::string largest = std::to_string(UINT64_MAX);
    if (ec == std::errc::result_out_of_range)
        throw std::invalid_argument(csprintf(
            "%s value \"%s\" is out of range (the largest is %s)",
            flag.c_str(), text.c_str(), largest.c_str()));
    const char *kind = allow_hex ? "decimal or 0x-hex " : "";
    if (ec != std::errc() || end != last)
        throw std::invalid_argument(csprintf(
            "%s expects a non-negative %sinteger, but got \"%s\"",
            flag.c_str(), kind, text.c_str()));
    return value;
}

} // namespace smt

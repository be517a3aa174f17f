/**
 * @file
 * Strict parsing of numeric command-line flag values, shared by the
 * smtsim and tracegen front ends.
 */

#ifndef SMTFETCH_UTIL_FLAG_VALUE_HH
#define SMTFETCH_UTIL_FLAG_VALUE_HH

#include <cstdint>
#include <string>

namespace smt
{

/**
 * Parse `text`, the value given to `flag`, as an unsigned 64-bit
 * integer. Accepts decimal digits only or, with allow_hex, also a
 * 0x-prefixed hex number: no sign, no whitespace, no suffix. Throws
 * std::invalid_argument naming the flag for any other input and for
 * a value that does not fit in 64 bits (strtoull would wrap "-1" and
 * saturate an overflow silently).
 */
std::uint64_t parseFlagValue(const std::string &flag,
                             const std::string &text,
                             bool allow_hex = false);

} // namespace smt

#endif // SMTFETCH_UTIL_FLAG_VALUE_HH

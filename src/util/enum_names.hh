/**
 * @file
 * Enum name tables: one file-scope table per enum names every
 * enumerator once (WL-ENUM-TABLE), and its *Name() helper and both
 * parsers derive from it, so a CLI spelling, describe() and the wire
 * can never disagree.
 */

#ifndef WBSIM_UTIL_ENUM_NAMES_HH
#define WBSIM_UTIL_ENUM_NAMES_HH

#include <cstddef>
#include <string>
#include <string_view>

#include "util/logging.hh"

namespace wbsim
{

/** One row of an enum's name table. The name is a string literal;
 *  its length is kept so a parse compares sizes before bytes. */
template <typename Enum>
struct EnumName
{
    Enum value;
    std::string_view name;
};

/** The name of @p value, or "?" when the table lacks it. */
template <typename Enum, std::size_t N>
const char *
nameOf(const EnumName<Enum> (&table)[N], Enum value)
{
    for (const auto &row : table)
        if (row.value == value)
            return row.name.data();
    return "?";
}

/** Non-fatal parse for untrusted input: false, leaving @p out
 *  untouched, on an unknown name. */
template <typename Enum, std::size_t N>
bool
tryParseName(const EnumName<Enum> (&table)[N], std::string_view name,
             Enum &out)
{
    for (const auto &row : table) {
        if (row.name == name) {
            out = row.value;
            return true;
        }
    }
    return false;
}

/** Parse for trusted input (CLI options, figure code): fatal() on
 *  an unknown name, listing the known ones. */
template <typename Enum, std::size_t N>
Enum
parseName(const EnumName<Enum> (&table)[N], std::string_view name,
          const char *what)
{
    Enum value{};
    if (tryParseName(table, name, value))
        return value;
    std::string known;
    for (const auto &row : table)
        known.append(known.empty() ? "" : ", ").append(row.name);
    wbsim_fatal("unknown ", what, " '", std::string(name),
                "' (expected one of: ", known, ")");
}

} // namespace wbsim

#endif // WBSIM_UTIL_ENUM_NAMES_HH

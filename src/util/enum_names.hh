/**
 * @file
 * Enum name tables: one file-scope table per enum names every
 * enumerator once, and its *Name() helper and both parsers derive
 * from it, so a CLI spelling, describe() and the wire can never
 * disagree. A static_assert(namesEvery(...)) beside each table
 * fails the build when the table misses an enumerator.
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

/** Whether @p table names every enumerator from 0 through @p last
 *  exactly once. Each table states it in a static_assert, so a row
 *  dropped, doubled or never added fails the build; naming the last
 *  enumerator there means appending one to the enum must update the
 *  assert too. */
template <typename Enum, std::size_t N>
constexpr bool
namesEvery(const EnumName<Enum> (&table)[N], Enum last)
{
    if (N != std::size_t(last) + 1)
        return false;
    for (std::size_t value = 0; value < N; ++value) {
        std::size_t rows = 0;
        for (const auto &row : table)
            rows += std::size_t(row.value) == value;
        if (rows != 1)
            return false;
    }
    return true;
}

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

#include "util/options.hh"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <sstream>

#include "util/logging.hh"

namespace wbsim
{

void
Options::declare(const std::string &name, const std::string &help,
                 const std::string &default_value, bool is_flag)
{
    decls_[name] = Decl{help, default_value, is_flag};
}

void
Options::parse(int argc, const char *const *argv)
{
    if (argc > 0)
        program_ = argv[0];
    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0) {
            positionals_.push_back(arg);
            continue;
        }
        std::string body = arg.substr(2);
        std::string name = body;
        std::string value;
        bool has_value = false;
        if (auto eq = body.find('='); eq != std::string::npos) {
            name = body.substr(0, eq);
            value = body.substr(eq + 1);
            has_value = true;
        }
        auto it = decls_.find(name);
        if (it == decls_.end())
            wbsim_fatal("unknown option --", name, "\n", usage());
        if (it->second.is_flag) {
            if (has_value)
                wbsim_fatal("flag --", name, " takes no value");
            value.assign(1, '1');
        } else if (!has_value) {
            if (i + 1 >= argc)
                wbsim_fatal("option --", name, " needs a value");
            value = argv[++i];
        }
        values_[name] = std::move(value);
    }
}

bool
Options::has(const std::string &name) const
{
    return values_.count(name) != 0;
}

std::string
Options::get(const std::string &name) const
{
    if (auto it = values_.find(name); it != values_.end())
        return it->second;
    if (auto it = decls_.find(name); it != decls_.end())
        return it->second.default_value;
    wbsim_panic("option ", name, " was never declared");
}

std::int64_t
Options::getInt(const std::string &name) const
{
    const std::string text = get(name);
    std::int64_t v = 0;
    if (!tryParseInt64(text, v))
        wbsim_fatal("option --", name, " expects an integer in "
                    "[-2^63, 2^63), got '", text, "'");
    return v;
}

std::uint64_t
Options::getUint(const std::string &name) const
{
    const std::string text = get(name);
    std::uint64_t v = 0;
    if (!tryParseUint64(text, v))
        wbsim_fatal("option --", name, " expects a non-negative "
                    "integer below 2^64, got '", text, "'");
    return v;
}

double
Options::getDouble(const std::string &name) const
{
    const std::string text = get(name);
    double v = 0.0;
    if (!tryParseDouble(text, v))
        wbsim_fatal("option --", name, " expects a finite number, "
                    "got '", text, "'");
    return v;
}

bool
Options::getFlag(const std::string &name) const
{
    return get(name) == "1";
}

std::string
Options::usage() const
{
    std::ostringstream os;
    os << "usage: " << program_ << " [options]\n";
    for (const auto &[name, decl] : decls_) {
        os << "  --" << name;
        if (!decl.is_flag)
            os << "=<value>";
        os << "  " << decl.help;
        if (!decl.default_value.empty())
            os << " (default " << decl.default_value << ")";
        os << "\n";
    }
    return os.str();
}

namespace
{

/** Common strict-parse scaffolding: @p text must be non-empty, the
 *  conversion must consume all of it, and the C library must not
 *  have reported a range error. */
template <typename Value, typename Convert>
bool
strictParse(std::string_view text, Value &out, Convert convert)
{
    if (text.empty())
        return false;
    // strtoll & friends skip leading whitespace; the documented
    // grammar is "the whole of text is the number", so don't.
    if (std::isspace(static_cast<unsigned char>(text.front())))
        return false;
    // strtoll & friends need a NUL terminator; string_views into
    // larger buffers (wire fields) may not have one.
    std::string buffer(text);
    errno = 0;
    char *end = nullptr;
    Value v = convert(buffer.c_str(), &end);
    if (end != buffer.c_str() + buffer.size() || errno == ERANGE)
        return false;
    out = v;
    return true;
}

} // namespace

bool
tryParseInt64(std::string_view text, std::int64_t &out)
{
    static_assert(sizeof(long long) == sizeof(std::int64_t));
    return strictParse<std::int64_t>(
        text, out, [](const char *s, char **end) {
            return std::strtoll(s, end, 0);
        });
}

bool
tryParseUint64(std::string_view text, std::uint64_t &out)
{
    // strtoull silently accepts "-1" as 2^64-1; a negative count is
    // a rejection, not a wrap.
    std::size_t first = text.find_first_not_of(" \t");
    if (first != std::string_view::npos && text[first] == '-')
        return false;
    static_assert(sizeof(unsigned long long) == sizeof(std::uint64_t));
    return strictParse<std::uint64_t>(
        text, out, [](const char *s, char **end) {
            return std::strtoull(s, end, 0);
        });
}

bool
tryParseDouble(std::string_view text, double &out)
{
    double v = 0.0;
    if (!strictParse<double>(text, v,
                             [](const char *s, char **end) {
                                 return std::strtod(s, end);
                             })
        || !std::isfinite(v))
        return false;
    out = v;
    return true;
}

std::uint64_t
envUint(const char *name, std::uint64_t fallback)
{
    // getenv is only MT-unsafe against a concurrent setenv; nothing
    // in the program writes the environment.
    // NOLINTNEXTLINE(concurrency-mt-unsafe)
    const char *text = std::getenv(name);
    if (!text || !*text)
        return fallback;
    std::uint64_t v = 0;
    if (!tryParseUint64(text, v)) {
        warn("ignoring malformed or out-of-range ", name, "='", text,
             "'");
        return fallback;
    }
    return v;
}

} // namespace wbsim

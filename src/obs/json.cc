#include "obs/json.hh"

#include <algorithm>
#include <array>
#include <charconv>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <limits>
#include <utility>

#include "util/logging.hh"

namespace wbsim::obs
{

namespace
{

/** Each byte's escaped spelling, padded to eight bytes so the writer
 *  can store it unconditionally; byte 7 holds the spelling's length.
 *  Named escapes for \" \\ \n \t \r, \u00xx for the other control
 *  characters, the byte itself for everything else. */
constexpr std::array<std::array<char, 8>, 256> kEscape = []() {
    constexpr char hex[] = "0123456789abcdef";
    std::array<std::array<char, 8>, 256> table{};
    for (int c = 0; c < 256; ++c) {
        auto &entry = table[std::size_t(c)];
        if (c < 0x20) {
            entry = {'\\', 'u', '0', '0', hex[c >> 4], hex[c & 0xf], 0, 6};
        } else {
            entry[0] = static_cast<char>(c);
            entry[7] = 1;
        }
    }
    for (auto [c, name] : {std::pair{'"', '"'}, std::pair{'\\', '\\'},
                           std::pair{'\n', 'n'}, std::pair{'\t', 't'},
                           std::pair{'\r', 'r'}})
        table[static_cast<unsigned char>(c)] = {'\\', name, 0, 0, 0, 0, 0, 2};
    return table;
}();

/** Append @p s to @p out escaped (see jsonEscape()). */
void
appendJsonEscaped(std::string &out, std::string_view s)
{
    // Keys and names usually escape nothing: copy them in one append.
    std::size_t plain = 0;
    while (plain < s.size()
           && kEscape[static_cast<unsigned char>(s[plain])][7] == 1)
        ++plain;
    out.append(s.data(), plain);
    s.remove_prefix(plain);
    if (s.empty())
        return;
    // The rest in one pass with no branch per byte: each byte's
    // spelling is stored whole (8 bytes) and the cursor advances by
    // its length. Room is sized for a few escapes and doubles when a
    // string needs more — a result document embedded in a response
    // escapes every quote and newline it holds.
    const std::size_t at = out.size();
    out.resize(at + s.size() + s.size() / 4 + 8);
    char *p = out.data() + at;
    char *last = out.data() + out.size() - 8; // last 8-byte store
    for (char c : s) {
        if (p > last) {
            auto used = static_cast<std::size_t>(p - out.data());
            out.resize(2 * out.size());
            p = out.data() + used;
            last = out.data() + out.size() - 8;
        }
        const auto &entry = kEscape[static_cast<unsigned char>(c)];
        std::memcpy(p, entry.data(), 8);
        p += entry[7];
    }
    out.resize(static_cast<std::size_t>(p - out.data()));
}

} // namespace

JsonWriter::JsonWriter(std::ostream &os, int indent)
    : os_(&os), out_(buffer_), indent_(indent)
{
}

JsonWriter::JsonWriter(std::string &out, int indent)
    : out_(out), indent_(indent)
{
}

JsonWriter::~JsonWriter()
{
    flush();
}

void
JsonWriter::flush()
{
    if (os_ != nullptr && !buffer_.empty()) {
        os_->write(buffer_.data(),
                   static_cast<std::streamsize>(buffer_.size()));
        buffer_.clear();
    }
}

void
JsonWriter::indentLine()
{
    if (indent_ <= 0)
        return;
    out_ += '\n';
    out_.append(counts_.size() * static_cast<std::size_t>(indent_), ' ');
}

void
JsonWriter::beginValue()
{
    if (after_key_) {
        after_key_ = false;
        return;
    }
    if (counts_.empty())
        return; // root value
    if (counts_.back() > 0)
        out_ += ',';
    ++counts_.back();
    indentLine();
}

void
JsonWriter::endValue()
{
    if (os_ != nullptr
        && (counts_.empty() || buffer_.size() >= kFlushBytes))
        flush();
}

JsonWriter &
JsonWriter::beginObject()
{
    beginValue();
    out_ += '{';
    counts_.push_back(0);
    return *this;
}

JsonWriter &
JsonWriter::endObject()
{
    wbsim_assert(!counts_.empty(), "endObject with nothing open");
    end('}');
    return *this;
}

JsonWriter &
JsonWriter::beginArray()
{
    beginValue();
    out_ += '[';
    counts_.push_back(0);
    return *this;
}

JsonWriter &
JsonWriter::endArray()
{
    wbsim_assert(!counts_.empty(), "endArray with nothing open");
    end(']');
    return *this;
}

void
JsonWriter::end(char bracket)
{
    bool had_members = counts_.back() > 0;
    counts_.pop_back();
    if (had_members)
        indentLine();
    out_ += bracket;
    endValue();
}

JsonWriter &
JsonWriter::key(std::string_view name)
{
    wbsim_assert(!after_key_, "two keys in a row");
    beginValue();
    out_ += '"';
    appendJsonEscaped(out_, name);
    out_ += "\": ";
    after_key_ = true;
    return *this;
}

JsonWriter &
JsonWriter::value(std::string_view v)
{
    beginValue();
    out_ += '"';
    appendJsonEscaped(out_, v);
    out_ += '"';
    endValue();
    return *this;
}

JsonWriter &
JsonWriter::value(const char *v)
{
    return value(std::string_view(v));
}

JsonWriter &
JsonWriter::value(std::uint64_t v)
{
    beginValue();
    char buf[24];
    out_.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
    endValue();
    return *this;
}

JsonWriter &
JsonWriter::value(std::int64_t v)
{
    beginValue();
    char buf[24];
    out_.append(buf, std::to_chars(buf, buf + sizeof buf, v).ptr);
    endValue();
    return *this;
}

JsonWriter &
JsonWriter::value(unsigned v)
{
    return value(static_cast<std::uint64_t>(v));
}

JsonWriter &
JsonWriter::value(int v)
{
    return value(static_cast<std::int64_t>(v));
}

JsonWriter &
JsonWriter::value(double v)
{
    beginValue();
    // %.17g, the text `ostream << setprecision(max_digits10)` prints:
    // it re-parses to the identical double (the round-trip tests rely
    // on this) and keeps every artifact's bytes unchanged.
    char buf[32];
    out_.append(buf,
                std::to_chars(buf, buf + sizeof buf, v,
                              std::chars_format::general,
                              std::numeric_limits<double>::max_digits10)
                    .ptr);
    endValue();
    return *this;
}

JsonWriter &
JsonWriter::value(bool v)
{
    beginValue();
    out_ += v ? "true" : "false";
    endValue();
    return *this;
}

JsonWriter &
JsonWriter::rawValue(std::string_view encoded)
{
    beginValue();
    out_.append(encoded);
    endValue();
    return *this;
}

std::string
jsonEscape(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    appendJsonEscaped(out, s);
    return out;
}

bool
JsonValue::boolean() const
{
    wbsim_assert(isBool(), "JSON value is not a bool");
    return *std::get_if<bool>(&value_);
}

double
JsonValue::number() const
{
    wbsim_assert(isNumber(), "JSON value is not a number");
    return std::get_if<Number>(&value_)->value;
}

std::uint64_t
JsonValue::uint() const
{
    wbsim_assert(isUint(), "JSON value is not an integral number");
    return std::get_if<Number>(&value_)->uint;
}

const std::string &
JsonValue::string() const
{
    wbsim_assert(isString(), "JSON value is not a string");
    return *std::get_if<std::string>(&value_);
}

const std::vector<JsonValue> &
JsonValue::array() const
{
    wbsim_assert(isArray(), "JSON value is not an array");
    return *std::get_if<std::vector<JsonValue>>(&value_);
}

const std::vector<JsonValue::Member> &
JsonValue::object() const
{
    wbsim_assert(isObject(), "JSON value is not an object");
    return *std::get_if<std::vector<Member>>(&value_);
}

const JsonValue *
JsonValue::find(std::string_view name) const
{
    const auto *members = std::get_if<std::vector<Member>>(&value_);
    if (members == nullptr)
        return nullptr;
    for (const Member &member : *members)
        if (member.key == name)
            return &member.value;
    return nullptr;
}

const JsonValue &
JsonValue::at(std::string_view name) const
{
    wbsim_assert(isObject(), "JSON value is not an object");
    const JsonValue *member = find(name);
    if (member == nullptr)
        wbsim_fatal("JSON object has no member '", name, "'");
    return *member;
}

/** Recursive-descent parser over an in-memory document, filling
 *  values in place. Malformed input raises Malformed; the two public
 *  entry points translate it into fatal() (trusted artifacts) or an
 *  error string (untrusted wire payloads). */
class JsonParser
{
  public:
    /** Parse failure carrying the diagnostic. */
    struct Malformed
    {
        std::string message;
    };

    explicit JsonParser(std::string_view text) : text_(text) {}

    void
    document(JsonValue &out)
    {
        parseValue(out);
        skipSpace();
        if (pos_ != text_.size())
            fail("trailing garbage after JSON document at byte ",
                 pos_);
    }

  private:
    template <typename... Args>
    [[noreturn]] void
    fail(Args &&...args)
    {
        throw Malformed{
            detail::concat(std::forward<Args>(args)...)};
    }

    /** Recursion guard: a few KB of '[' must not overflow the
     *  connection thread's stack. */
    struct DepthGuard
    {
        explicit DepthGuard(JsonParser &p) : parser(p)
        {
            if (++parser.depth_ > kMaxDepth)
                throw Malformed{"JSON nesting deeper than 64 levels"};
        }
        ~DepthGuard() { --parser.depth_; }
        JsonParser &parser;
    };
    static constexpr int kMaxDepth = 64;

    /** std::isspace in the "C" locale. */
    static bool
    isSpace(char c)
    {
        return c == ' ' || (c >= '\t' && c <= '\r');
    }

    static bool
    isDigit(char c)
    {
        return c >= '0' && c <= '9';
    }

    void
    skipSpace()
    {
        while (pos_ < text_.size() && isSpace(text_[pos_]))
            ++pos_;
    }

    char
    peek()
    {
        skipSpace();
        if (pos_ >= text_.size())
            fail("unexpected end of JSON document");
        return text_[pos_];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail("expected '", std::string(1, c), "' at byte ", pos_,
                 " of JSON document");
        ++pos_;
    }

    bool
    consume(char c)
    {
        if (peek() == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    void
    parseValue(JsonValue &v)
    {
        DepthGuard depth(*this);
        switch (peek()) {
          case '{':
            parseObject(v);
            return;
          case '[':
            parseArray(v);
            return;
          case '"':
            parseString(v.value_.emplace<std::string>());
            return;
          case 't':
            literal("true");
            v.value_.emplace<bool>(true);
            return;
          case 'f':
            literal("false");
            v.value_.emplace<bool>(false);
            return;
          case 'n':
            literal("null");
            return;
          default:
            parseNumber(v);
        }
    }

    void
    literal(std::string_view word)
    {
        for (char c : word) {
            if (pos_ >= text_.size() || text_[pos_] != c)
                fail("malformed JSON literal at byte ", pos_);
            ++pos_;
        }
    }

    /** The byte each named escape stands for; 0 for the rest. */
    static constexpr std::array<char, 256> kUnescape = []() {
        std::array<char, 256> table{};
        for (auto [name, c] : {std::pair{'"', '"'}, std::pair{'\\', '\\'},
                               std::pair{'/', '/'}, std::pair{'n', '\n'},
                               std::pair{'t', '\t'}, std::pair{'r', '\r'}})
            table[static_cast<unsigned char>(name)] = c;
        return table;
    }();

    /** Appends the string's bytes to @p out, written through a raw
     *  pointer into room that doubles on demand: result documents
     *  embedded in a response carry an escape every few bytes, and
     *  an append per stretch costs more than the bytes it copies. */
    void
    parseString(std::string &out)
    {
        expect('"');
        const char *const limit = text_.data() + text_.size();
        const char *in = text_.data() + pos_;
        const std::size_t at = out.size();
        out.resize(std::max(out.capacity(), at + 8));
        // Locals, not members: stores through p may alias anything.
        char *p = out.data() + at;
        char *room = out.data() + out.size();
        while (in < limit) {
            char c = *in;
            if (c == '"')
                break;
            if (p == room) {
                auto used = static_cast<std::size_t>(p - out.data());
                out.resize(2 * out.size());
                p = out.data() + used;
                room = out.data() + out.size();
            }
            if (c != '\\') {
                *p++ = c;
                ++in;
                continue;
            }
            if (++in >= limit)
                break; // a lone trailing backslash
            char e = *in++;
            if (char named = kUnescape[static_cast<unsigned char>(e)]) {
                *p++ = named;
            } else if (e == 'u') {
                if (limit - in < 4)
                    fail("truncated \\u escape in JSON string");
                // strtoul over exactly the four bytes, as before:
                // the exporter only emits \u for control characters,
                // and odd spellings keep decoding the same way.
                char hex[5] = {in[0], in[1], in[2], in[3], '\0'};
                *p++ = static_cast<char>(std::strtoul(hex, nullptr, 16));
                in += 4;
            } else {
                fail("unsupported JSON escape '\\", std::string(1, e),
                     "'");
            }
        }
        out.resize(static_cast<std::size_t>(p - out.data()));
        pos_ = static_cast<std::size_t>(in - text_.data());
        expect('"');
    }

    /**
     * A number token is a run of [0-9.eE+-] (an optional leading
     * sign included). Its value is what strtod makes of the token —
     * the longest valid prefix, 0 when there is none — and a token
     * of only an optional '+' and digits is integral, its uint the
     * strtoull value (saturating at 2^64-1). Both are computed in
     * place; strtod only runs on a copy when from_chars reports the
     * value out of double's range.
     */
    void
    parseNumber(JsonValue &v)
    {
        skipSpace();
        std::size_t start = pos_;
        bool integral = true;
        if (pos_ < text_.size()
            && (text_[pos_] == '-' || text_[pos_] == '+'))
            ++pos_;
        std::size_t digits = pos_;
        while (pos_ < text_.size()) {
            char c = text_[pos_];
            if (isDigit(c)) {
                ++pos_;
            } else if (c == '.' || c == 'e' || c == 'E' || c == '-'
                       || c == '+') {
                integral = false;
                ++pos_;
            } else {
                break;
            }
        }
        if (pos_ == start)
            fail("malformed JSON number at byte ", pos_);
        auto &number = v.value_.emplace<JsonValue::Number>();
        number.value = toDouble(start, digits);
        number.integral = integral && text_[start] != '-';
        if (number.integral) {
            std::uint64_t value = 0;
            for (std::size_t i = digits; i < pos_; ++i) {
                auto digit = static_cast<std::uint64_t>(text_[i] - '0');
                if (value > (std::numeric_limits<std::uint64_t>::max()
                             - digit)
                                / 10) {
                    value = std::numeric_limits<std::uint64_t>::max();
                    break;
                }
                value = value * 10 + digit;
            }
            number.uint = value;
        }
    }

    /** strtod's value for the token text_[start, pos_), whose body
     *  (after any sign) starts at @p body. */
    double
    toDouble(std::size_t start, std::size_t body)
    {
        const char *first = text_.data() + body;
        const char *last = text_.data() + pos_;
        // from_chars takes no '+' and strtod no second sign: a body
        // that does not start with a digit or '.' converts nothing.
        if (first == last || !(isDigit(*first) || *first == '.'))
            return 0.0;
        double value = 0.0;
        std::errc ec = std::from_chars(first, last, value,
                                       std::chars_format::general)
                           .ec;
        if (ec == std::errc::invalid_argument)
            return 0.0;
        if (ec == std::errc::result_out_of_range) {
            // Overflow and underflow: defer to strtod's HUGE_VAL /
            // denormal rules on a NUL-terminated copy (rare).
            std::string token(text_.substr(start, pos_ - start));
            return std::strtod(token.c_str(), nullptr);
        }
        return text_[start] == '-' ? -value : value;
    }

    /** Arrays and objects collect their children on the parser's
     *  scratch stacks and move them into one exactly-sized vector
     *  when they close, so a container costs one allocation however
     *  many members it has. */
    void
    parseArray(JsonValue &v)
    {
        expect('[');
        auto &items = v.value_.emplace<std::vector<JsonValue>>();
        if (consume(']'))
            return;
        const std::size_t base = items_.size();
        for (;;) {
            JsonValue item;
            parseValue(item);
            items_.push_back(std::move(item));
            if (consume(']'))
                break;
            expect(',');
        }
        items.assign(std::make_move_iterator(items_.begin() + base),
                      std::make_move_iterator(items_.end()));
        items_.resize(base);
    }

    void
    parseObject(JsonValue &v)
    {
        expect('{');
        auto &members =
            v.value_.emplace<std::vector<JsonValue::Member>>();
        if (consume('}'))
            return;
        const std::size_t base = members_.size();
        for (;;) {
            // Nested containers push onto members_ too: address the
            // slot by index, not by a reference they could move.
            const std::size_t slot = members_.size();
            parseString(members_.emplace_back().key);
            expect(':');
            JsonValue value;
            parseValue(value);
            members_[slot].value = std::move(value);
            if (consume('}'))
                break;
            expect(',');
        }
        members.assign(std::make_move_iterator(members_.begin() + base),
                      std::make_move_iterator(members_.end()));
        members_.resize(base);
    }

    std::string_view text_;
    std::size_t pos_ = 0;
    int depth_ = 0;
    /** Children of the containers still open, innermost last. */
    std::vector<JsonValue> items_;
    std::vector<JsonValue::Member> members_;
};

JsonValue
JsonValue::parse(std::string_view text)
{
    JsonValue out;
    try {
        JsonParser(text).document(out);
    } catch (const JsonParser::Malformed &err) {
        wbsim_fatal(err.message);
    }
    return out;
}

bool
JsonValue::tryParse(std::string_view text, JsonValue &out,
                    std::string &error)
{
    JsonValue doc;
    try {
        JsonParser(text).document(doc);
    } catch (const JsonParser::Malformed &err) {
        error = err.message;
        return false;
    }
    out = std::move(doc);
    return true;
}

} // namespace wbsim::obs

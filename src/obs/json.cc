#include "obs/json.hh"

#include <algorithm>
#include <array>
#include <bit>
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

namespace
{

/** std::isspace in the "C" locale. */
bool
isSpace(char c)
{
    return c == ' ' || (c >= '\t' && c <= '\r');
}

bool
isDigit(char c)
{
    return c >= '0' && c <= '9';
}

static_assert(std::endian::native == std::endian::little,
              "string scanning reads 8 bytes as one little-endian word");

/** How many of the 8 bytes of @p word, in memory order, come before
 *  the first '"' or '\\' (8 when there is none). A zero byte of
 *  word ^ c marks a c; (v - 1s) & ~v & high bits flags every zero
 *  byte of v exactly up to the first, which is all that is read. */
unsigned
plainBytes(std::uint64_t word)
{
    constexpr std::uint64_t kOnes = 0x0101010101010101u;
    constexpr std::uint64_t kHigh = 0x8080808080808080u;
    auto zeros = [](std::uint64_t v) { return (v - kOnes) & ~v & kHigh; };
    std::uint64_t stops = zeros(word ^ (kOnes * '"'))
                          | zeros(word ^ (kOnes * '\\'));
    return stops == 0 ? 8 : static_cast<unsigned>(std::countr_zero(stops)) / 8;
}

/** The first '"' or '\\' in [in, limit), or limit. */
const char *
plainEnd(const char *in, const char *limit)
{
    for (; limit - in >= 8; in += 8) {
        std::uint64_t word;
        std::memcpy(&word, in, sizeof word);
        if (unsigned plain = plainBytes(word); plain < 8)
            return in + plain;
    }
    while (in < limit && *in != '"' && *in != '\\')
        ++in;
    return in;
}

/** The byte each named escape stands for; 0 for the rest. */
constexpr std::array<char, 256> kUnescape = []() {
    std::array<char, 256> table{};
    for (auto [name, c] : {std::pair{'"', '"'}, std::pair{'\\', '\\'},
                           std::pair{'/', '/'}, std::pair{'n', '\n'},
                           std::pair{'t', '\t'}, std::pair{'r', '\r'}})
        table[static_cast<unsigned char>(name)] = c;
    return table;
}();

} // namespace

template <typename... Args>
void
JsonReader::fail(Args &&...args)
{
    throw Malformed{detail::concat(std::forward<Args>(args)...)};
}

[[gnu::always_inline]] inline void
JsonReader::skipSpace()
{
    while (pos_ < text_.size() && isSpace(text_[pos_]))
        ++pos_;
}

[[gnu::always_inline]] inline char
JsonReader::peekByte()
{
    skipSpace();
    if (pos_ >= text_.size())
        fail("unexpected end of JSON document");
    return text_[pos_];
}

[[gnu::always_inline]] inline char
JsonReader::valueStart()
{
    // A value inside open_ containers sits at depth open_ + 1.
    if (open_ >= kMaxDepth)
        fail("JSON nesting deeper than 64 levels");
    return peekByte();
}

[[gnu::always_inline]] inline void
JsonReader::expect(char c)
{
    if (peekByte() != c)
        fail("expected '", std::string(1, c), "' at byte ", pos_,
             " of JSON document");
    ++pos_;
}

JsonValue::Kind
JsonReader::peek()
{
    switch (valueStart()) {
      case '{':
        return JsonValue::Kind::Object;
      case '[':
        return JsonValue::Kind::Array;
      case '"':
        return JsonValue::Kind::String;
      case 't':
      case 'f':
        return JsonValue::Kind::Bool;
      case 'n':
        return JsonValue::Kind::Null;
      default:
        return JsonValue::Kind::Number;
    }
}

void
JsonReader::open(char bracket)
{
    valueStart();
    expect(bracket);
    ++open_;
    first_ = true;
}

void
JsonReader::beginObject()
{
    open('{');
}

void
JsonReader::beginArray()
{
    open('[');
}

[[gnu::always_inline]] inline bool
JsonReader::nextIn(char close)
{
    const bool first = std::exchange(first_, false);
    const char c = peekByte();
    if (c == close) {
        ++pos_;
        --open_;
        return false;
    }
    if (!first) {
        if (c != ',')
            fail("expected ',' at byte ", pos_, " of JSON document");
        ++pos_;
    }
    return true;
}

bool
JsonReader::nextMember(std::string_view &key, std::string_view likely)
{
    if (!nextIn('}'))
        return false;
    // The quoted spelling of likely, byte for byte, is that string.
    const std::size_t size = likely.size();
    if (size > 0 && peekByte() == '"' && pos_ + size + 2 <= text_.size()
        && text_[pos_ + size + 1] == '"'
        && text_.compare(pos_ + 1, size, likely) == 0) {
        pos_ += size + 2;
        key = likely;
    } else {
        key = stringView(key_);
    }
    expect(':');
    return true;
}

bool
JsonReader::nextItem()
{
    return nextIn(']');
}

void
JsonReader::literal(std::string_view word)
{
    if (text_.substr(pos_, word.size()) == word) {
        pos_ += word.size();
        return;
    }
    for (char c : word) {
        if (pos_ >= text_.size() || text_[pos_] != c)
            fail("malformed JSON literal at byte ", pos_);
        ++pos_;
    }
}

/** Unescaped bytes are written through a raw pointer into room that
 *  doubles on demand: result documents embedded in a response carry an
 *  escape every few bytes, and an append per stretch costs more than
 *  the bytes it copies. Plain stretches move 8 bytes at a time. */
std::string_view
JsonReader::stringView(std::string &out)
{
    expect('"');
    const char *const limit = text_.data() + text_.size();
    const char *in = text_.data() + pos_;
    // Keys and names escape nothing: hand out the text itself.
    const char *plain = plainEnd(in, limit);
    if (plain < limit && *plain == '"') {
        pos_ = static_cast<std::size_t>(plain + 1 - text_.data());
        return {in, static_cast<std::size_t>(plain - in)};
    }
    out.assign(in, static_cast<std::size_t>(plain - in));
    in = plain;
    const std::size_t at = out.size();
    out.resize(std::max(out.capacity(), at + 8));
    // Locals, not members: stores through p may alias anything.
    char *p = out.data() + at;
    char *room = out.data() + out.size();
    while (in < limit) {
        if (room - p < 8) {
            auto used = static_cast<std::size_t>(p - out.data());
            out.resize(2 * out.size());
            p = out.data() + used;
            room = out.data() + out.size();
        }
        // Up to the next quote or backslash: a whole word is stored,
        // and its plain bytes are kept.
        if (limit - in >= 8) {
            std::uint64_t word;
            std::memcpy(&word, in, sizeof word);
            std::memcpy(p, &word, sizeof word);
            unsigned plain = plainBytes(word);
            p += plain;
            in += plain;
            if (plain == 8)
                continue;
        } else if (*in != '"' && *in != '\\') {
            *p++ = *in++;
            continue;
        }
        if (*in == '"')
            break;
        if (++in >= limit)
            break; // a lone trailing backslash
        char e = *in++;
        if (char named = kUnescape[static_cast<unsigned char>(e)]) {
            *p++ = named;
        } else if (e == 'u') {
            if (limit - in < 4)
                fail("truncated \\u escape in JSON string");
            // strtoul over exactly the four bytes, as before: the
            // exporter only emits \u for control characters, and odd
            // spellings keep decoding the same way.
            char hex[5] = {in[0], in[1], in[2], in[3], '\0'};
            *p++ = static_cast<char>(std::strtoul(hex, nullptr, 16));
            in += 4;
        } else {
            fail("unsupported JSON escape '\\", std::string(1, e), "'");
        }
    }
    out.resize(static_cast<std::size_t>(p - out.data()));
    pos_ = static_cast<std::size_t>(in - text_.data());
    expect('"');
    return out;
}

/**
 * A number token is a run of [0-9.eE+-] (an optional leading sign
 * included). Its value is what strtod makes of the token — the
 * longest valid prefix, 0 when there is none — and a token of only an
 * optional '+' and digits is integral, its uint the strtoull value
 * (saturating at 2^64-1). Both are computed in place; strtod only
 * runs on a copy when from_chars reports the value out of double's
 * range.
 */
JsonValue::Number
JsonReader::number()
{
    const std::size_t start = pos_;
    const char *const limit = text_.data() + text_.size();
    const char *p = text_.data() + start;
    bool integral = true;
    if (p < limit && (*p == '-' || *p == '+'))
        ++p;
    const auto digits = static_cast<std::size_t>(p - text_.data());
    for (; p < limit; ++p) {
        char c = *p;
        if (isDigit(c))
            continue;
        if (c != '.' && c != 'e' && c != 'E' && c != '-' && c != '+')
            break;
        integral = false;
    }
    pos_ = static_cast<std::size_t>(p - text_.data());
    if (pos_ == start)
        fail("malformed JSON number at byte ", pos_);
    JsonValue::Number number;
    number.integral = integral && text_[start] != '-';
    if (number.integral) {
        // Up to 19 digits nothing overflows; past that, saturate.
        const bool checked = pos_ - digits > 19;
        std::uint64_t value = 0;
        for (std::size_t i = digits; i < pos_; ++i) {
            auto digit = static_cast<std::uint64_t>(text_[i] - '0');
            if (checked
                && value > (std::numeric_limits<std::uint64_t>::max()
                            - digit) / 10) {
                value = std::numeric_limits<std::uint64_t>::max();
                break;
            }
            value = value * 10 + digit;
        }
        number.uint = value;
        // Up to 15 digits the integer is exact in a double, which is
        // then strtod's value too.
        if (pos_ - digits <= 15) {
            number.value = static_cast<double>(value);
            return number;
        }
    }
    number.value = toDouble(start, digits);
    return number;
}

double
JsonReader::toDouble(std::size_t start, std::size_t body)
{
    const char *first = text_.data() + body;
    const char *last = text_.data() + pos_;
    // from_chars takes no '+' and strtod no second sign: a body that
    // does not start with a digit or '.' converts nothing.
    if (first == last || !(isDigit(*first) || *first == '.'))
        return 0.0;
    double value = 0.0;
    std::errc ec =
        std::from_chars(first, last, value, std::chars_format::general).ec;
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

/** Arrays and objects collect their children on the reader's scratch
 *  stacks and move them into one exactly-sized vector when they close,
 *  so a container costs one allocation however many members it has. */
void
JsonReader::value(JsonValue &v)
{
    switch (valueStart()) {
      case '{': {
        beginObject();
        auto &members = v.value_.emplace<std::vector<JsonValue::Member>>();
        const std::size_t base = members_.size();
        for (std::string_view key; nextMember(key);) {
            // Nested containers push onto members_ too: address the
            // slot by index, not by a reference they could move.
            const std::size_t slot = members_.size();
            members_.emplace_back().key = key;
            JsonValue child;
            value(child);
            members_[slot].value = std::move(child);
        }
        members.assign(std::make_move_iterator(members_.begin() + base),
                       std::make_move_iterator(members_.end()));
        members_.resize(base);
        return;
      }
      case '[': {
        beginArray();
        auto &items = v.value_.emplace<std::vector<JsonValue>>();
        const std::size_t base = items_.size();
        while (nextItem()) {
            JsonValue item; // nested arrays may move items_
            value(item);
            items_.push_back(std::move(item));
        }
        items.assign(std::make_move_iterator(items_.begin() + base),
                     std::make_move_iterator(items_.end()));
        items_.resize(base);
        return;
      }
      case '"':
        string(v.value_.emplace<std::string>());
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
        v.value_.emplace<std::monostate>();
        return;
      default:
        // A reused scalar slot (FieldReader's) keeps its alternative.
        if (auto *slot = std::get_if<JsonValue::Number>(&v.value_))
            *slot = number();
        else
            v.value_.emplace<JsonValue::Number>(number());
    }
}

void
JsonReader::string(std::string &out)
{
    valueStart();
    if (std::string_view bytes = stringView(out); bytes.data() != out.data())
        out.assign(bytes);
}

void
JsonReader::skip()
{
    switch (valueStart()) {
      case '{':
        beginObject();
        for (std::string_view key; nextMember(key);)
            skip();
        return;
      case '[':
        beginArray();
        while (nextItem())
            skip();
        return;
      case '"':
        stringView(key_);
        return;
      case 't':
        literal("true");
        return;
      case 'f':
        literal("false");
        return;
      case 'n':
        literal("null");
        return;
      default:
        number();
    }
}

void
JsonReader::end()
{
    skipSpace();
    if (pos_ != text_.size())
        fail("trailing garbage after JSON document at byte ", pos_);
}

JsonValue
JsonValue::parse(std::string_view text)
{
    JsonValue out;
    std::string error;
    if (!tryParse(text, out, error))
        wbsim_fatal(error);
    return out;
}

bool
JsonValue::tryParse(std::string_view text, JsonValue &out,
                    std::string &error)
{
    JsonValue doc;
    JsonReader reader(text);
    if (!reader.read(error, [&] {
            reader.value(doc);
            return true;
        }))
        return false;
    out = std::move(doc);
    return true;
}

} // namespace wbsim::obs

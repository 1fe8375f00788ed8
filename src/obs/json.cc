#include "obs/json.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <charconv>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <memory>
#include <limits>
#include <utility>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

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

/** Strings longer than this are escaped by appendJsonEscaped(), which
 *  sizes room for a few escapes instead of six bytes a byte. */
constexpr std::size_t kLongString = 64;

/** @p s escaped at @p p, which has room for 6 bytes a byte plus 2;
 *  returns the end. Each byte's spelling is stored whole (8 bytes)
 *  and the cursor advances by its length. */
char *
putEscaped(char *p, std::string_view s)
{
    for (char c : s) {
        const auto &entry = kEscape[static_cast<unsigned char>(c)];
        std::memcpy(p, entry.data(), 8);
        p += entry[7];
    }
    return p;
}

/** Whether any byte of @p word needs an escape: a control byte, '"'
 *  or '\\' (exact, with no byte-order assumption). */
template <typename Word>
bool
escapes(Word word)
{
    constexpr Word kOnes = Word(~Word{0}) / 0xff;
    constexpr Word kHigh = kOnes * 0x80;
    auto zeroByte = [](Word v) { return (v - kOnes) & ~v & kHigh; };
    return ((word - kOnes * 0x20) & ~word & kHigh)
           | zeroByte(word ^ (kOnes * '"')) | zeroByte(word ^ (kOnes * '\\'));
}

/** putEscaped() for a name or a key: a string of 4 bytes or more is
 *  checked and copied a word at a time (4-byte words below 8 bytes;
 *  the last word overlaps the one before it), and reaches the byte
 *  table only when it escapes something. */
char *
putString(char *p, std::string_view s)
{
    const std::size_t n = s.size();
    auto copied = [&](auto word) {
        using Word = decltype(word);
        constexpr std::size_t size = sizeof(Word);
        Word last{};
        std::memcpy(&last, s.data() + n - size, size);
        bool escaped = escapes(last);
        for (std::size_t i = 0; i + size < n; i += size) {
            std::memcpy(&word, s.data() + i, size);
            escaped |= escapes(word);
            std::memcpy(p + i, &word, size);
        }
        std::memcpy(p + n - size, &last, size);
        return !escaped;
    };
    if (n >= 8 ? copied(std::uint64_t{}) : n >= 4 && copied(std::uint32_t{}))
        return p + n;
    return putEscaped(p, s);
}

/** The quoted key and its separator: room 6n + 4. */
char *
putKey(char *p, std::string_view name)
{
    *p++ = '"';
    p = putString(p, name);
    std::memcpy(p, "\": ", 3);
    return p + 3;
}

/** Room a scalar's text takes at most. */
std::size_t
scalarBytes(const JsonWriter::Scalar &v)
{
    return v.kind == JsonWriter::Scalar::Kind::String
               ? 6 * v.text.size() + 4
               : 32;
}

char *
putScalar(char *p, const JsonWriter::Scalar &v)
{
    using Kind = JsonWriter::Scalar::Kind;
    switch (v.kind) {
      case Kind::Uint:
        return std::to_chars(p, p + 24, v.uint).ptr;
      case Kind::Int:
        return std::to_chars(p, p + 24, v.sint).ptr;
      case Kind::Double:
        // %.17g, the text `ostream << setprecision(max_digits10)`
        // prints: it re-parses to the identical double (the
        // round-trip tests rely on this) and keeps every artifact's
        // bytes unchanged.
        return std::to_chars(p, p + 32, v.real, std::chars_format::general,
                             std::numeric_limits<double>::max_digits10)
            .ptr;
      case Kind::Bool:
        std::memcpy(p, v.boolean ? "true" : "false", 5);
        return p + (v.boolean ? 4 : 5);
      case Kind::String:
        *p++ = '"';
        p = putString(p, v.text);
        *p++ = '"';
        return p;
    }
    return p;
}

} // namespace

JsonWriter::JsonWriter(std::ostream &os, int indent)
    : os_(&os), indent_(indent)
{
}

JsonWriter::JsonWriter(std::string &out, int indent)
    : out_(&out), indent_(indent)
{
}

JsonWriter::JsonWriter(int indent, std::size_t reserve) : indent_(indent)
{
    buffer_.reserve(reserve);
}

JsonWriter::~JsonWriter()
{
    flush();
}

std::string
JsonWriter::take()
{
    buffer_.resize(used_);
    used_ = 0;
    return std::move(buffer_);
}

void
JsonWriter::flush()
{
    if (os_ != nullptr && used_ > 0) {
        os_->write(buffer_.data(), static_cast<std::streamsize>(used_));
        used_ = 0;
    }
}

char *
JsonWriter::room(std::size_t bytes)
{
    // Zero-fills the new room once; a resize past the capacity grows
    // it geometrically.
    if (buffer_.size() - used_ < bytes)
        buffer_.resize(std::max(buffer_.capacity(), used_ + bytes));
    return buffer_.data() + used_;
}

void
JsonWriter::advance(char *end)
{
    used_ = static_cast<std::size_t>(end - buffer_.data());
    if (out_ != nullptr) {
        out_->append(buffer_.data(), used_);
        used_ = 0;
    }
}

char *
JsonWriter::putSeparator(char *p)
{
    if (std::exchange(after_key_, false) || counts_.empty())
        return p; // right after a key, or the root value
    if (counts_.back()++ > 0)
        *p++ = ',';
    if (indent_ > 0) {
        *p++ = '\n';
        const std::size_t n = counts_.size() * std::size_t(indent_);
        std::memset(p, ' ', n);
        p += n;
    }
    return p;
}

template <typename Put>
void
JsonWriter::emit(std::size_t bytes, Put &&put)
{
    bytes += 2 + counts_.size() * std::size_t(std::max(indent_, 0));
    advance(put(putSeparator(room(bytes))));
}

void
JsonWriter::endValue()
{
    if (os_ != nullptr && (counts_.empty() || used_ >= kFlushBytes))
        flush();
}

JsonWriter &
JsonWriter::beginObject()
{
    emit(1, [](char *p) {
        *p = '{';
        return p + 1;
    });
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
    emit(1, [](char *p) {
        *p = '[';
        return p + 1;
    });
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
    const std::size_t indent =
        had_members && indent_ > 0
            ? counts_.size() * static_cast<std::size_t>(indent_)
            : 0;
    char *p = room(indent + 2);
    if (had_members && indent_ > 0) {
        *p++ = '\n';
        std::memset(p, ' ', indent);
        p += indent;
    }
    *p++ = bracket;
    advance(p);
    endValue();
}

JsonWriter &
JsonWriter::key(std::string_view name)
{
    wbsim_assert(!after_key_, "two keys in a row");
    emit(6 * name.size() + 4, [&](char *p) { return putKey(p, name); });
    after_key_ = true;
    return *this;
}

JsonWriter &
JsonWriter::write(const std::string_view *name, const Scalar &v)
{
    wbsim_assert(name == nullptr || !after_key_, "two keys in a row");
    const std::size_t keyBytes = name ? 6 * name->size() + 4 : 0;
    if (v.kind == Scalar::Kind::String && v.text.size() > kLongString) {
        // A result document or a stats text: the key and the opening
        // quote go through emit(), the string is escaped onto the
        // buffer's end in room sized for a few escapes.
        emit(keyBytes + 1, [&](char *p) {
            if (name)
                p = putKey(p, *name);
            *p = '"';
            return p + 1;
        });
        buffer_.resize(used_);
        appendJsonEscaped(buffer_, v.text);
        buffer_ += '"';
        advance(buffer_.data() + buffer_.size());
    } else {
        emit(keyBytes + scalarBytes(v), [&](char *p) {
            if (name)
                p = putKey(p, *name);
            return putScalar(p, v);
        });
    }
    endValue();
    return *this;
}

JsonWriter &
JsonWriter::rawValue(std::string_view encoded)
{
    emit(encoded.size(), [&](char *p) {
        std::memcpy(p, encoded.data(), encoded.size());
        return p + encoded.size();
    });
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

/** Whether the @p n bytes at @p a and @p b agree, in two overlapping
 *  loads a side (no byte outside either range is read) for the short
 *  keys of a schema. */
[[gnu::always_inline]] inline bool
sameBytes(const char *a, const char *b, std::size_t n)
{
    auto differ = [&](auto word) {
        decltype(word) a0, a1, b0, b1;
        std::memcpy(&a0, a, sizeof word);
        std::memcpy(&b0, b, sizeof word);
        std::memcpy(&a1, a + n - sizeof word, sizeof word);
        std::memcpy(&b1, b + n - sizeof word, sizeof word);
        return ((a0 ^ b0) | (a1 ^ b1)) != 0;
    };
    if (n >= 8)
        return n <= 16 ? !differ(std::uint64_t{}) : std::memcmp(a, b, n) == 0;
    if (n >= 4)
        return !differ(std::uint32_t{});
    for (std::size_t i = 0; i < n; ++i)
        if (a[i] != b[i])
            return false;
    return true;
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

/** Bytes the unescape takes as one block. */
constexpr std::size_t kBlock = 64;

/** Bit i set where in[i] is '"' or '\\', for i in [0, kBlock). */
std::uint64_t
stopMask(const char *in)
{
    std::uint64_t mask = 0;
#if defined(__SSE2__)
    const __m128i quote = _mm_set1_epi8('"');
    const __m128i slash = _mm_set1_epi8('\\');
    for (std::size_t i = 0; i < kBlock; i += 16) {
        const __m128i bytes =
            _mm_loadu_si128(reinterpret_cast<const __m128i *>(in + i));
        const auto bits = static_cast<std::uint16_t>(_mm_movemask_epi8(
            _mm_or_si128(_mm_cmpeq_epi8(bytes, quote),
                         _mm_cmpeq_epi8(bytes, slash))));
        mask |= std::uint64_t{bits} << i;
    }
#else
    for (std::size_t i = 0; i < kBlock; ++i)
        mask |= std::uint64_t{in[i] == '"' || in[i] == '\\'} << i;
#endif
    return mask;
}

/** Copy the @p n <= kBlock bytes at @p from to @p to, 16 at a time:
 *  up to 15 bytes past either end are read or written. */
void
copyShort(char *to, const char *from, std::size_t n)
{
    for (std::size_t i = 0; i < n; i += 16)
        std::memcpy(to + i, from + i, 16);
}

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

bool
JsonReader::enterObject()
{
    if (valueStart() != '{') {
        skip();
        return false;
    }
    ++pos_;
    ++open_;
    first_ = true;
    return true;
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
    // The writers' spelling of likely: quoted, then the colon.
    const std::size_t size = likely.size();
    const char *at = text_.data() + pos_;
    if (size > 0 && text_.size() - pos_ >= size + 3 && at[0] == '"'
        && at[size + 1] == '"' && at[size + 2] == ':'
        && sameBytes(at + 1, likely.data(), size)) {
        pos_ += size + 3;
        key = likely;
        return true;
    }
    key = stringView();
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
    if (text_.size() - pos_ >= word.size()
        && sameBytes(text_.data() + pos_, word.data(), word.size())) {
        pos_ += word.size();
        return;
    }
    for (char c : word) {
        if (pos_ >= text_.size() || text_[pos_] != c)
            fail("malformed JSON literal at byte ", pos_);
        ++pos_;
    }
}

/**
 * Plain stretches move 8 bytes at a time. Escaped strings (a result
 * document embedded in a response carries an escape every few bytes)
 * are unescaped a block at a time: one mask marks the block's quotes
 * and backslashes, and each named escape in it costs a copy of the
 * stretch before it and one table lookup; the loop over the mask's
 * bits ends once a block instead of restarting at every escape. A
 * quote, a \u escape, a bad escape and the last two blocks of the
 * text take the word-at-a-time path. Output goes to scratch_, sized
 * once.
 */
std::string_view
JsonReader::stringView()
{
    expect('"');
    const char *const begin = text_.data() + pos_;
    const char *const limit = text_.data() + text_.size();
    const char *in = plainEnd(begin, limit);
    // Keys and names escape nothing: hand out the text itself.
    if (in < limit && *in == '"') {
        pos_ = static_cast<std::size_t>(in + 1 - text_.data());
        return {begin, static_cast<std::size_t>(in - begin)};
    }
    return unescape(begin, in);
}

std::string_view
JsonReader::unescape(const char *begin, const char *in)
{
    const char *const limit = text_.data() + text_.size();
    const auto rest = static_cast<std::size_t>(limit - begin) + kBlock;
    if (scratchBytes_ < rest) {
        scratch_ = std::make_unique_for_overwrite<char[]>(rest);
        scratchBytes_ = rest;
    }
    char *const out = scratch_.get();
    std::memcpy(out, begin, static_cast<std::size_t>(in - begin));
    // Locals, not members: stores through p may alias anything.
    char *p = out + (in - begin);
    for (;;) {
        if (limit - in >= std::ptrdiff_t(2 * kBlock)) {
            // copyShort and an escape at the block's last byte read
            // up to a block past it.
            std::uint64_t stops = stopMask(in);
            std::size_t from = 0;
            bool special = false;
            while (stops != 0) {
                const auto at = static_cast<std::size_t>(
                    std::countr_zero(stops));
                copyShort(p, in + from, at - from);
                p += at - from;
                const char named =
                    kUnescape[static_cast<unsigned char>(in[at + 1])];
                if (in[at] == '"' || named == 0) {
                    in += at;
                    special = true;
                    break;
                }
                *p++ = named;
                from = at + 2;
                // The escaped byte may be a quote or backslash itself.
                stops &= ~(std::uint64_t{3} << at);
            }
            if (!special) {
                if (from < kBlock) {
                    copyShort(p, in + from, kBlock - from);
                    p += kBlock - from;
                }
                in += std::max(from, kBlock);
                continue;
            }
        } else if (limit - in >= 8) {
            // Up to the next quote or backslash: a whole word is
            // stored, and its plain bytes are kept.
            std::uint64_t word;
            std::memcpy(&word, in, sizeof word);
            std::memcpy(p, &word, sizeof word);
            unsigned plain = plainBytes(word);
            p += plain;
            in += plain;
            if (plain == 8)
                continue;
        } else if (in < limit && *in != '"' && *in != '\\') {
            *p++ = *in++;
            continue;
        }
        if (in >= limit || *in == '"')
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
    pos_ = static_cast<std::size_t>(in - text_.data());
    expect('"');
    return {out, static_cast<std::size_t>(p - out)};
}

/**
 * A number token is a run of [0-9.eE+-] (an optional leading sign
 * included). Its value is what strtod makes of the token — the
 * longest valid prefix, 0 when there is none — and a token of only an
 * optional '+' and digits is integral, its integer the strtoull value
 * (saturating at 2^64-1). Both are computed in place; strtod only
 * runs on a copy when from_chars reports the value out of double's
 * range.
 */
[[gnu::always_inline]] inline JsonReader::NumberToken
JsonReader::numberToken()
{
    const std::size_t start = pos_;
    const char *const limit = text_.data() + text_.size();
    const char *p = text_.data() + start;
    if (p < limit && (*p == '-' || *p == '+'))
        ++p;
    const char *const body = p;
    // The leading digits' value, taken in the same pass (it wraps
    // past 19 digits, where integerOf() recomputes it).
    std::uint64_t value = 0;
    for (; p < limit && isDigit(*p); ++p)
        value = value * 10 + static_cast<std::uint64_t>(*p - '0');
    bool integral = true;
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
    return {start, static_cast<std::size_t>(body - text_.data()), value,
            integral && text_[start] != '-'};
}

std::uint64_t
JsonReader::integerOf(const NumberToken &token) const
{
    // Up to 19 digits nothing overflows; past that, saturate.
    if (pos_ - token.body <= 19)
        return token.value;
    std::uint64_t value = 0;
    for (std::size_t i = token.body; i < pos_; ++i) {
        auto digit = static_cast<std::uint64_t>(text_[i] - '0');
        if (value > (std::numeric_limits<std::uint64_t>::max() - digit) / 10)
            return std::numeric_limits<std::uint64_t>::max();
        value = value * 10 + digit;
    }
    return value;
}

double
JsonReader::doubleOf(const NumberToken &token) const
{
    // Up to 15 digits an integer is exact in a double, which is then
    // strtod's value too.
    if (token.integral && pos_ - token.body <= 15)
        return static_cast<double>(token.value);
    const char *first = text_.data() + token.body;
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
        std::string copy(text_.substr(token.start, pos_ - token.start));
        return std::strtod(copy.c_str(), nullptr);
    }
    return text_[token.start] == '-' ? -value : value;
}

namespace
{

/** Whether a value starting with @p c is a number token. */
bool
startsNumber(char c)
{
    return isDigit(c)
           || (c != '{' && c != '[' && c != '"' && c != 't' && c != 'f'
               && c != 'n');
}

} // namespace

bool
JsonReader::uint(std::uint64_t &out)
{
    if (!startsNumber(valueStart())) {
        skip();
        return false;
    }
    const NumberToken token = numberToken();
    if (!token.integral)
        return false;
    out = integerOf(token);
    return true;
}

bool
JsonReader::number(double &out)
{
    if (!startsNumber(valueStart())) {
        skip();
        return false;
    }
    out = doubleOf(numberToken());
    return true;
}

bool
JsonReader::boolean(bool &out)
{
    switch (valueStart()) {
      case 't':
        literal("true");
        out = true;
        return true;
      case 'f':
        literal("false");
        out = false;
        return true;
      default:
        skip();
        return false;
    }
}

bool
JsonReader::string(std::string_view &out)
{
    if (valueStart() != '"') {
        skip();
        return false;
    }
    out = stringView();
    return true;
}

bool
JsonReader::string(std::string &out)
{
    std::string_view bytes;
    if (!string(bytes))
        return false;
    out.assign(bytes);
    return true;
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
        v.value_.emplace<std::string>(stringView());
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
      default: {
        const NumberToken token = numberToken();
        JsonValue::Number number;
        number.integral = token.integral;
        if (token.integral)
            number.uint = integerOf(token);
        number.value = doubleOf(token);
        v.value_.emplace<JsonValue::Number>(number);
      }
    }
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
        stringView();
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
        numberToken();
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

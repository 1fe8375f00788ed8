/**
 * @file
 * Minimal JSON support for the run artifacts and the wbsim-serve
 * wire: a buffered writer with automatic comma/indent management, and
 * a small recursive-descent parser.
 *
 * Scope is deliberately tiny — just what the exporters and the wire
 * codec need. Doubles are emitted with max_digits10 precision (the
 * `%.17g` text `ostream << setprecision(17)` prints) so every value
 * re-parses to the identical bit pattern (the round-trip tests
 * compare SimResults field-for-field with exact equality).
 *
 * Both halves sit on the wbsim-serve hit path, so neither touches
 * iostreams per token nor allocates per node beyond the strings and
 * child vectors the document itself needs (DESIGN.md §13, "JSON and
 * wire codec").
 */

#ifndef WBSIM_OBS_JSON_HH
#define WBSIM_OBS_JSON_HH

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

namespace wbsim::obs
{

/**
 * JSON writer; nesting and commas are managed for you. Text is
 * appended to a string: either the caller's (the string sink) or an
 * internal buffer that is flushed to the stream when the root value
 * closes, when it passes kFlushBytes, and on destruction.
 */
class JsonWriter
{
  public:
    /** Buffered size at which a stream-backed writer flushes
     *  mid-document (bounds the footprint of large exports). */
    static constexpr std::size_t kFlushBytes = 64u << 10;

    /** @param indent spaces per nesting level (0 = compact). */
    explicit JsonWriter(std::ostream &os, int indent = 2);
    /** Append to @p out instead of a stream (no flushing needed). */
    explicit JsonWriter(std::string &out, int indent = 2);
    ~JsonWriter();

    JsonWriter(const JsonWriter &) = delete;
    JsonWriter &operator=(const JsonWriter &) = delete;

    /** @name Structure. Objects/arrays nest; key() precedes any
     *  value or container opened inside an object. */
    /// @{
    JsonWriter &beginObject();
    JsonWriter &endObject();
    JsonWriter &beginArray();
    JsonWriter &endArray();
    JsonWriter &key(std::string_view name);
    /// @}

    /** @name Values. */
    /// @{
    JsonWriter &value(std::string_view v);
    JsonWriter &value(const char *v);
    JsonWriter &value(std::uint64_t v);
    JsonWriter &value(std::int64_t v);
    JsonWriter &value(unsigned v);
    JsonWriter &value(int v);
    JsonWriter &value(double v);
    JsonWriter &value(bool v);
    /** A value that is already JSON text, appended verbatim: the
     *  writer places it (comma, indent) but does not look inside.
     *  wbsim-serve stores each cell's result as the string literal
     *  value() wrote for it once, and appends it here on every hit. */
    JsonWriter &rawValue(std::string_view encoded);
    /// @}

    /** key(name) + value(v). */
    template <typename T>
    JsonWriter &
    field(std::string_view name, const T &v)
    {
        key(name);
        return value(v);
    }

  private:
    /** Comma/newline/indent before a value or container (or nothing
     *  right after a key). */
    void beginValue();
    /** Close the innermost container with @p bracket. */
    void end(char bracket);
    /** A value or container just completed: flush if it was the root
     *  or the buffer is past kFlushBytes. */
    void endValue();
    void indentLine();
    void flush();

    std::ostream *os_ = nullptr;
    std::string buffer_;
    /** buffer_ (stream mode) or the caller's string (string sink). */
    std::string &out_;
    int indent_;
    /** One frame per open container: counts emitted members. */
    std::vector<std::size_t> counts_;
    bool after_key_ = false;
};

/** Escape @p s per JSON string rules (quotes not included): `"` `\`
 *  `\n` `\t` `\r` by name, every other byte below 0x20 as `\u00xx`,
 *  everything else verbatim. */
std::string jsonEscape(std::string_view s);

/** A parsed JSON value (tree form; fine for artifact-sized files). */
class JsonValue
{
  public:
    /** One object member; see object(). */
    struct Member;

    enum class Kind : std::uint8_t
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    Kind kind() const { return static_cast<Kind>(value_.index()); }
    bool isNull() const { return kind() == Kind::Null; }
    bool isObject() const { return kind() == Kind::Object; }
    bool isArray() const { return kind() == Kind::Array; }
    bool isString() const { return kind() == Kind::String; }
    bool isNumber() const { return kind() == Kind::Number; }
    bool isBool() const { return kind() == Kind::Bool; }
    /** True when uint() is safe: a number written without sign,
     *  fraction, or exponent. */
    bool
    isUint() const
    {
        const Number *n = std::get_if<Number>(&value_);
        return n != nullptr && n->integral;
    }

    /** @name Typed accessors; fatal() on kind mismatch. */
    /// @{
    bool boolean() const;
    double number() const;
    /** The number as uint64 (exact when the text was integral;
     *  saturates at 2^64-1 like strtoull). */
    std::uint64_t uint() const;
    const std::string &string() const;
    const std::vector<JsonValue> &array() const;
    /** All object members in document order, repeated keys included
     *  (lookups see only the first); fatal() if not an object. Lets
     *  strict decoders reject unknown keys. */
    const std::vector<Member> &object() const;
    /// @}

    /** Object member @p name (the first, if repeated); nullptr if
     *  absent or this is not an object. One probe: use it instead of
     *  has() + at(). */
    const JsonValue *find(std::string_view name) const;
    /** Object member @p name; fatal() if absent or not an object. */
    const JsonValue &at(std::string_view name) const;
    /** True if this is an object with a member @p name. */
    bool has(std::string_view name) const { return find(name); }

    /**
     * Parse @p text as one JSON document. fatal() on malformed
     * input — artifacts are machine-written, so damage is a bug.
     */
    static JsonValue parse(std::string_view text);

    /**
     * Non-fatal parse for untrusted input (the wbsim-serve wire
     * protocol): on malformed text returns false and describes the
     * damage in @p error instead of terminating the process.
     */
    static bool tryParse(std::string_view text, JsonValue &out,
                         std::string &error);

  private:
    friend class JsonParser;

    struct Number
    {
        double value = 0.0;
        std::uint64_t uint = 0;
        bool integral = false;
    };

    /** One alternative per Kind, in Kind order, so a value costs 40
     *  bytes whatever it holds. */
    std::variant<std::monostate, bool, Number, std::string,
                 std::vector<JsonValue>, std::vector<Member>>
        value_;
};

struct JsonValue::Member
{
    std::string key;
    JsonValue value;
};

} // namespace wbsim::obs

#endif // WBSIM_OBS_JSON_HH

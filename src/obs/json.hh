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

#include <array>
#include <cmath>
#include <cstdint>
#include <limits>
#include <ostream>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "util/logging.hh"

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

/**
 * Strict member extraction from one JSON object: a member that is
 * present must have the right JSON type and range. By default an
 * absent member keeps its default and finish() rejects keys the
 * schema does not know, so a misspelled knob fails loudly instead of
 * silently simulating the baseline (the wire decoders). After
 * requireAll() an absent member is an error too (the sim-results
 * reader, which ignores unknown members).
 *
 * Errors read "where[index].member: what", naming the first failure.
 * Claiming allocates nothing: claimed keys are the schema's string
 * literals, kept in a fixed table, and the location prefix of an
 * error is only rendered when one is reported.
 */
class FieldReader
{
  public:
    /** Sentinel for @p index: the location is @p where alone. */
    static constexpr std::size_t kNoIndex = ~std::size_t{0};

    /** @p index and @p member, when given, extend the location:
     *  "cells[3]", "machine.l1d". */
    FieldReader(const JsonValue &value, std::string_view where,
                std::string &error, std::size_t index = kNoIndex,
                const char *member = nullptr)
        : value_(value), where_(where), member_(member), index_(index),
          error_(error)
    {
        ok_ = value_.isObject();
        if (!ok_)
            fail("must be a JSON object");
    }

    bool ok() const { return ok_; }

    /** An absent member is an error from now on. */
    void requireAll() { required_ = true; }

    template <typename T>
    bool
    uintField(const char *key, T &out,
              std::uint64_t max = std::numeric_limits<T>::max())
    {
        const JsonValue *v = claim(key);
        if (!v)
            return ok_;
        if (!v->isUint())
            return fail(std::string(key)
                        + " must be an unsigned integer");
        std::uint64_t raw = v->uint();
        if (raw > max)
            return fail(std::string(key) + " out of range");
        out = static_cast<T>(raw);
        return true;
    }

    bool
    boolField(const char *key, bool &out)
    {
        const JsonValue *v = claim(key);
        if (!v)
            return ok_;
        if (!v->isBool())
            return fail(std::string(key) + " must be a boolean");
        out = v->boolean();
        return true;
    }

    bool
    doubleField(const char *key, double &out)
    {
        const JsonValue *v = claim(key);
        if (!v)
            return ok_;
        if (!v->isNumber())
            return fail(std::string(key) + " must be a number");
        // 1e999 parses to infinity, which JSON cannot carry back.
        if (!std::isfinite(v->number()))
            return fail(std::string(key) + " must be finite");
        out = v->number();
        return true;
    }

    bool
    stringField(const char *key, std::string &out)
    {
        const JsonValue *v = claim(key);
        if (!v)
            return ok_;
        if (!v->isString())
            return fail(std::string(key) + " must be a string");
        out = v->string();
        return true;
    }

    template <typename Enum, typename TryParse>
    bool
    enumField(const char *key, Enum &out, TryParse tryParse)
    {
        const JsonValue *v = claim(key);
        if (!v)
            return ok_;
        if (!v->isString())
            return fail(std::string(key) + " must be a string");
        if (!tryParse(v->string(), out))
            return fail(std::string(key) + ": unknown name \""
                        + v->string() + "\"");
        return true;
    }

    /** The raw member, claimed as known (nullptr when absent). */
    const JsonValue *
    claim(const char *key)
    {
        if (!ok_)
            return nullptr;
        wbsim_assert(known_count_ < known_.size(),
                     "FieldReader schema has more keys than its table");
        known_[known_count_++] = key;
        const JsonValue *member = value_.find(key);
        found_ += member != nullptr;
        if (member == nullptr && required_)
            fail(std::string(key) + " is missing");
        return member;
    }

    /** Reject any member the schema did not claim, naming the
     *  alphabetically first. */
    bool
    finish()
    {
        if (!ok_)
            return false;
        const auto &members = value_.object();
        if (found_ == members.size())
            return true; // every member claimed (keys are distinct)
        const std::string *unknown = nullptr;
        for (const auto &member : members) {
            if (isKnown(member.key))
                continue;
            if (unknown == nullptr || member.key < *unknown)
                unknown = &member.key;
        }
        if (unknown == nullptr)
            return true; // only repeats of claimed keys
        return fail("unknown key \"" + *unknown + "\"");
    }

    /** Record @p what at this location unless an error is already
     *  set (the innermost failure wins); always false. */
    bool
    fail(const std::string &what)
    {
        if (error_.empty()) {
            error_ = where_;
            if (index_ != kNoIndex)
                error_.append("[").append(std::to_string(index_))
                    .append("]");
            if (member_ != nullptr)
                error_.append(".").append(member_);
            error_ += ": " + what;
        }
        ok_ = false;
        return false;
    }

  private:
    bool
    isKnown(std::string_view key) const
    {
        for (std::size_t i = 0; i < known_count_; ++i)
            if (known_[i] == key)
                return true;
        return false;
    }

    const JsonValue &value_;
    std::string_view where_;
    const char *member_;
    std::size_t index_;
    std::string &error_;
    /** Keys claimed so far; the widest schema (write_buffer) has 17. */
    std::array<std::string_view, 24> known_;
    std::size_t known_count_ = 0;
    /** Claimed keys that were present. */
    std::size_t found_ = 0;
    bool ok_ = true;
    bool required_ = false;
};

} // namespace wbsim::obs

#endif // WBSIM_OBS_JSON_HH

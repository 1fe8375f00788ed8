/**
 * @file
 * Minimal JSON support for the run artifacts and the wbsim-serve
 * wire: a buffered writer with automatic comma/indent management, a
 * pull reader that is the one tokenizer, a tree built through it, and
 * strict field extraction over the reader.
 *
 * Scope is deliberately tiny — just what the exporters and the wire
 * codec need. Doubles are emitted with max_digits10 precision (the
 * `%.17g` text `ostream << setprecision(17)` prints) so every value
 * re-parses to the identical bit pattern (the round-trip tests
 * compare SimResults field-for-field with exact equality).
 *
 * Writer and reader sit on the wbsim-serve hit path, so neither
 * touches iostreams per token; the decoders walk their text with the
 * reader and build no tree (DESIGN.md §13, "JSON and wire codec").
 */

#ifndef WBSIM_OBS_JSON_HH
#define WBSIM_OBS_JSON_HH

#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <ostream>
#include <span>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "util/logging.hh"

namespace wbsim::obs
{

/**
 * JSON writer; nesting and commas are managed for you. Each call
 * composes its bytes (separator, key, value) through a raw cursor
 * into room reserved in the writer's buffer, with no per-piece string
 * bookkeeping. Three sinks take the text: a stream (the buffer is
 * flushed when the root value closes, when it passes kFlushBytes, and
 * on destruction), the caller's string (each call appends its bytes
 * at once, so the string holds exactly the text written so far), or
 * the buffer itself, handed over by take() (the wire encoders).
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
    /** Keep the text; @p reserve sizes the buffer once. */
    explicit JsonWriter(int indent, std::size_t reserve);
    ~JsonWriter();

    JsonWriter(const JsonWriter &) = delete;
    JsonWriter &operator=(const JsonWriter &) = delete;

    /** The text written so far (the buffer sink), emptying the
     *  writer. */
    std::string take();

    /** One scalar value (number, boolean or string) as value() and
     *  field() take it. */
    struct Scalar
    {
        enum class Kind : std::uint8_t
        {
            Uint,
            Int,
            Double,
            Bool,
            String,
        };
        Scalar(std::uint64_t v) : kind(Kind::Uint), uint(v) {}
        Scalar(std::int64_t v) : kind(Kind::Int), sint(v) {}
        Scalar(unsigned v) : Scalar(std::uint64_t{v}) {}
        Scalar(int v) : Scalar(std::int64_t{v}) {}
        Scalar(double v) : kind(Kind::Double), real(v) {}
        Scalar(bool v) : kind(Kind::Bool), boolean(v) {}
        Scalar(std::string_view v) : kind(Kind::String), uint(0), text(v)
        {
        }
        Scalar(const char *v) : Scalar(std::string_view(v)) {}
        Scalar(const std::string &v) : Scalar(std::string_view(v)) {}

        Kind kind;
        union
        {
            std::uint64_t uint;
            std::int64_t sint;
            double real;
            bool boolean;
        };
        std::string_view text;
    };

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
    JsonWriter &value(Scalar v) { return write(nullptr, v); }
    /** A value that is already JSON text, appended verbatim: the
     *  writer places it (comma, indent) but does not look inside.
     *  wbsim-serve stores each cell's result as the string literal
     *  value() wrote for it once, and appends it here on every hit. */
    JsonWriter &rawValue(std::string_view encoded);
    /// @}

    /** key(name) + value(v), composed and appended as one piece. */
    JsonWriter &
    field(std::string_view name, Scalar v)
    {
        return write(&name, v);
    }

  private:
    /** Place @p v, after the member key @p name unless it is null. */
    JsonWriter &write(const std::string_view *name, const Scalar &v);
    /** The cursor, with room for @p bytes more. */
    char *room(std::size_t bytes);
    /** The text now ends at @p end: the string sink takes it. */
    void advance(char *end);
    /** Write the separator (comma, newline, indent; nothing right
     *  after a key) and up to @p bytes more written by @p put, which
     *  takes the cursor and returns its end. */
    template <typename Put>
    void emit(std::size_t bytes, Put &&put);
    /** The separator at @p p; returns its end. */
    char *putSeparator(char *p);
    /** Close the innermost container with @p bracket. */
    void end(char bracket);
    /** A value or container just completed: flush if it was the root
     *  or the buffer is past kFlushBytes. */
    void endValue();
    void flush();

    std::ostream *os_ = nullptr;
    /** The caller's string (string sink). */
    std::string *out_ = nullptr;
    /** Sized to its capacity; the text is its first used_ bytes. */
    std::string buffer_;
    std::size_t used_ = 0;
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
    friend class JsonReader;

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
 * Pull reader over one JSON document, and the only tokenizer: every
 * rule of the format (number and string tokens, escapes, the 64-level
 * nesting limit, the error texts) lives here once. A caller walks the
 * document value by value: beginObject()/nextMember() and
 * beginArray()/nextItem() step through containers, the typed reads
 * take a scalar straight into its destination, value() builds the
 * next value as a tree and skip() steps over it. JsonValue::tryParse
 * is one value() call; the wire decoders walk a frame member by member
 * and never build a tree.
 *
 * Malformed text throws Malformed where it is found; read() runs a
 * decode and turns that into an error string.
 */
class JsonReader
{
  public:
    /** Parse failure carrying the diagnostic. */
    struct Malformed
    {
        std::string message;
    };

    explicit JsonReader(std::string_view text) : text_(text) {}

    JsonReader(const JsonReader &) = delete;
    JsonReader &operator=(const JsonReader &) = delete;

    /**
     * Run @p decode, then require the end of the text. @p decode
     * reads the document's one value whole, even one it rejects, and
     * returns false with its error set on a rejection; text that is
     * malformed anywhere still wins, as when the whole text is parsed
     * before it is decoded. False with @p error set on either failure.
     */
    template <typename Decode>
    bool
    read(std::string &error, Decode &&decode)
    {
        try {
            bool ok = decode();
            end();
            return ok;
        } catch (const Malformed &err) {
            error = err.message;
            return false;
        }
    }

    /** Kind of the next value; nothing is consumed. */
    JsonValue::Kind peek();

    /** Open the object that is the next value. */
    void beginObject();
    /** Open the next value if it is an object (true); else step over
     *  it, checking it as skip() does. */
    bool enterObject();
    /** Step to the next member of the innermost open object: true
     *  with its key, after which the caller reads or skips its value;
     *  false once the object has closed. @p key stays valid until the
     *  next call into the reader. A key spelled exactly @p likely (no
     *  escapes in either) is matched without being scanned. */
    bool nextMember(std::string_view &key, std::string_view likely = {});

    /** Open the array that is the next value. */
    void beginArray();
    /** True before each item of the innermost open array (the caller
     *  reads or skips it); false once the array has closed. */
    bool nextItem();

    /** @name Typed reads. Each reads the next value into @p out when
     *  it is of the named kind and returns true; any other value is
     *  stepped over (checked as skip() checks it) and false returned.
     *  A view stays valid until the next call into the reader. */
    /// @{
    /** A number written without sign, fraction or exponent; its value
     *  saturates at 2^64-1 like strtoull. */
    bool uint(std::uint64_t &out);
    /** Any number: strtod's value of its token. */
    bool number(double &out);
    bool boolean(bool &out);
    bool string(std::string &out);
    bool string(std::string_view &out);
    /// @}

    /** Read the next value whole, as a tree. */
    void value(JsonValue &out);
    /** Step over the next value, checking it as value() would. */
    void skip();

  private:
    /** Nesting limit: a few KB of '[' must not overflow the
     *  connection thread's stack. */
    static constexpr int kMaxDepth = 64;

    /** A number token's extent: text_[start, pos_), its body (after
     *  any sign) from @p body, the value of the body's leading digits
     *  (exact up to 19 of them); integral when it is an optional '+'
     *  and digits only. */
    struct NumberToken
    {
        std::size_t start;
        std::size_t body;
        std::uint64_t value;
        bool integral;
    };

    template <typename... Args>
    [[noreturn, gnu::cold, gnu::noinline]] void fail(Args &&...args);

    void skipSpace();
    /** The next non-space byte; fails at the end of the text. */
    char peekByte();
    /** peekByte() for the first byte of a value, after the depth
     *  check a value at this nesting must pass. */
    char valueStart();
    void expect(char c);
    void open(char bracket);
    /** The shared tail of nextMember()/nextItem(). */
    bool nextIn(char close);
    void literal(std::string_view word);
    /** The next string's bytes: a view of the text when it holds no
     *  escape, else of the unescaped copy in scratch_. */
    std::string_view stringView();
    /** stringView()'s escaped case: the text from @p begin, plain up
     *  to @p in, unescaped into scratch_. */
    [[gnu::noinline]] std::string_view unescape(const char *begin,
                                                const char *in);
    /** Consume the number token at pos_ (which a value starting with
     *  any byte but {["tfn starts). */
    NumberToken numberToken();
    /** The token's value as an integer, saturating. */
    std::uint64_t integerOf(const NumberToken &token) const;
    /** strtod's value for the token. */
    double doubleOf(const NumberToken &token) const;
    /** Fail unless only whitespace is left. */
    void end();

    std::string_view text_;
    std::size_t pos_ = 0;
    /** Containers open around the next value. */
    int open_ = 0;
    /** Just past a '{' or '[': the next member or item takes no
     *  comma. */
    bool first_ = false;
    /** Room for unescaped strings: taken once, at the first string
     *  with an escape, for the rest of the text (which no unescaped
     *  string can outgrow) plus one block's overshoot. It is not
     *  zero-filled, so room no string reaches is never touched. */
    std::unique_ptr<char[]> scratch_;
    std::size_t scratchBytes_ = 0;
    /** Children of the containers value() has open, innermost last. */
    std::vector<JsonValue> items_;
    std::vector<JsonValue::Member> members_;
};

/**
 * Strict member extraction from the JSON object that is a reader's
 * next value: a member that is present must have the right JSON type
 * and range. members() hands the object's members over in document
 * order and steps over repeats (the first wins) and unknown keys; the
 * typed fields below read each value straight into its destination;
 * finish() rejects keys the schema does not know, naming the
 * alphabetically first, so a misspelled knob fails loudly instead of
 * silently simulating the baseline (the wire decoders). A reader that
 * ignores unknown keys (the sim-results reader) does not call it.
 *
 * Errors read "where[index].member: what", naming the first failure
 * in schema order; the location prefix of an error is only rendered
 * when one is reported.
 */
class FieldReader
{
  public:
    /** Sentinel for @p index: the location is @p where alone. */
    static constexpr std::size_t kNoIndex = ~std::size_t{0};

    /** Over the object that is @p json's next value (any other value
     *  is stepped over and rejected). @p keys lists the schema in the
     *  order writers emit it. @p index and @p member, when given,
     *  extend the location: "cells[3]", "machine.l1d". */
    FieldReader(JsonReader &json, std::span<const std::string_view> keys,
                std::string_view where, std::string &error,
                std::size_t index = kNoIndex, const char *member = nullptr)
        : json_(json), keys_(keys), where_(where), member_(member),
          index_(index), error_(error)
    {
        wbsim_assert(keys.size() <= 64, "FieldReader schema too wide");
        object_ = json.enterObject();
        if (!object_) {
            fail("must be a JSON object");
            failed_ = 0;
        }
    }

    bool ok() const { return ok_; }
    /** The reader the fields are read from. */
    JsonReader &json() { return json_; }
    /** The schema index of the failure reported (kNoIndex: none, or
     *  one set by fail() outside attempt()). */
    std::size_t failedField() const { return failed_; }

    /**
     * Read the object's members in document order. Each
     * member the schema lists goes to @p read(field), its index in the
     * keys, which reads the value through the typed fields below under
     * that field's key. A key is first matched against the field after
     * the last one, as writers emit members in schema order. Repeats
     * (the first wins) and unknown keys are stepped over. The whole
     * object is read even after a failure: a member listed before the
     * failed one is still checked, and its failure is the one
     * reported. False once a field has failed.
     */
    template <typename Read>
    bool
    members(Read &&read)
    {
        if (!object_)
            return false;
        std::string_view key;
        while (json_.nextMember(
            key, next_ < keys_.size() ? keys_[next_] : std::string_view())) {
            std::size_t at = next_;
            if (at >= keys_.size() || keys_[at].data() != key.data()) {
                at = 0;
                while (at < keys_.size() && keys_[at] != key)
                    ++at;
            }
            if (at == keys_.size()) {
                noteUnknown(key);
                json_.skip();
                continue;
            }
            const bool repeat = has(at);
            seen_ |= std::uint64_t{1} << at;
            next_ = at + 1;
            if (repeat || at >= failed_)
                json_.skip();
            else
                attempt(at, [&] { read(at); });
        }
        return ok_;
    }

    /** Whether field @p field has appeared. */
    bool has(std::size_t field) const { return seen_ >> field & 1; }

    /**
     * Run @p check, which reads or judges field @p field, unless a
     * field listed no later has already failed. Its failure replaces
     * that of a field listed later. Decoders judge an absent member
     * through it too.
     */
    template <typename Check>
    void
    attempt(std::size_t field, Check &&check)
    {
        if (field >= failed_)
            return;
        if (ok_) {
            check();
            if (!ok_)
                failed_ = field;
            return;
        }
        std::string later = std::move(error_);
        error_.clear();
        ok_ = true;
        check();
        if (!ok_) {
            failed_ = field;
        } else {
            error_ = std::move(later);
            ok_ = false;
        }
    }

    /** After members(): fail every listed field the object lacked,
     *  as "key is missing", ranked like any other failure. */
    void
    requireAll()
    {
        for (std::size_t field = 0; field < keys_.size(); ++field)
            if (!has(field))
                attempt(field, [&] {
                    fail(std::string(keys_[field]) + " is missing");
                });
    }

    template <typename T>
    bool
    uintField(const char *key, T &out,
              std::uint64_t max = std::numeric_limits<T>::max())
    {
        std::uint64_t raw = 0;
        if (!json_.uint(raw))
            return fail(std::string(key)
                        + " must be an unsigned integer");
        if (raw > max)
            return fail(std::string(key) + " out of range");
        out = static_cast<T>(raw);
        return true;
    }

    bool
    boolField(const char *key, bool &out)
    {
        if (!json_.boolean(out))
            return fail(std::string(key) + " must be a boolean");
        return true;
    }

    bool
    doubleField(const char *key, double &out)
    {
        double v = 0.0;
        if (!json_.number(v))
            return fail(std::string(key) + " must be a number");
        // 1e999 parses to infinity, which JSON cannot carry back.
        if (!std::isfinite(v))
            return fail(std::string(key) + " must be finite");
        out = v;
        return true;
    }

    bool
    stringField(const char *key, std::string &out)
    {
        if (!json_.string(out))
            return fail(std::string(key) + " must be a string");
        return true;
    }

    template <typename Enum, typename TryParse>
    bool
    enumField(const char *key, Enum &out, TryParse tryParse)
    {
        std::string_view name;
        if (!json_.string(name))
            return fail(std::string(key) + " must be a string");
        if (!tryParse(name, out))
            return fail(std::string(key) + ": unknown name \""
                        + std::string(name) + "\"");
        return true;
    }

    /** Reject any member the schema does not list, naming the
     *  alphabetically first. Call it after members(). */
    bool
    finish()
    {
        if (!ok_)
            return false;
        if (has_unknown_)
            return fail("unknown key \"" + unknown_ + "\"");
        return true;
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
    void
    noteUnknown(std::string_view key)
    {
        if (!has_unknown_ || key < unknown_) {
            unknown_ = key;
            has_unknown_ = true;
        }
    }

    /** The reader, the schema, whether the value was an object, the
     *  fields seen so far, the field expected next and the
     *  first-listed field that failed (kNoIndex: none). */
    JsonReader &json_;
    std::span<const std::string_view> keys_;
    bool object_ = false;
    std::uint64_t seen_ = 0;
    std::size_t next_ = 0;
    std::size_t failed_ = kNoIndex;

    std::string_view where_;
    const char *member_;
    std::size_t index_;
    std::string &error_;
    /** The alphabetically first unknown key seen. */
    std::string unknown_;
    bool has_unknown_ = false;
    bool ok_ = true;
};

} // namespace wbsim::obs

#endif // WBSIM_OBS_JSON_HH

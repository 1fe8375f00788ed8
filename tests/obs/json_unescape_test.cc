/**
 * @file
 * Differential test of the string unescape. JsonReader unescapes a
 * block at a time; the reference below is the scalar loop it
 * replaced, kept verbatim (with the reader members it used). Both read
 * random strings with an escape at every offset of a block, \u
 * escapes (odd spellings included), a truncated \u, a bad escape, a
 * lone trailing backslash and unterminated text, with and without
 * text after the string, and must give the same bytes and the same
 * errors.
 */

#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <random>
#include <string>
#include <string_view>

#include "obs/json.hh"

namespace wbsim::obs
{
namespace
{

/** The scalar string reader, as it was. */
class ReferenceString
{
  public:
    explicit ReferenceString(std::string_view text) : text_(text) {}

    /** The string token at the start of the text, unescaped into
     *  @p out; false with @p error on malformed text. Sets @p end
     *  past the closing quote. */
    bool
    read(std::string &out, std::string &error, std::size_t &end)
    {
        try {
            std::string_view bytes = stringView(out);
            if (bytes.data() != out.data())
                out.assign(bytes);
            end = pos_;
            return true;
        } catch (const std::string &message) {
            error = message;
            return false;
        }
    }

  private:
    static bool
    isSpace(char c)
    {
        return c == ' ' || (c >= '\t' && c <= '\r');
    }

    /** How many of the 8 bytes of @p word, in memory order, come before
     *  the first '"' or '\\' (8 when there is none). */
    static unsigned
    plainBytes(std::uint64_t word)
    {
        constexpr std::uint64_t kOnes = 0x0101010101010101u;
        constexpr std::uint64_t kHigh = 0x8080808080808080u;
        auto zeros = [](std::uint64_t v) { return (v - kOnes) & ~v & kHigh; };
        std::uint64_t stops = zeros(word ^ (kOnes * '"'))
                              | zeros(word ^ (kOnes * '\\'));
        return stops == 0 ? 8
                          : static_cast<unsigned>(std::countr_zero(stops)) / 8;
    }

    /** The first '"' or '\\' in [in, limit), or limit. */
    static const char *
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
    static constexpr std::array<char, 256> kUnescape = []() {
        std::array<char, 256> table{};
        for (auto [name, c] : {std::pair{'"', '"'}, std::pair{'\\', '\\'},
                               std::pair{'/', '/'}, std::pair{'n', '\n'},
                               std::pair{'t', '\t'}, std::pair{'r', '\r'}})
            table[static_cast<unsigned char>(name)] = c;
        return table;
    }();

    [[noreturn]] void
    fail(const std::string &message)
    {
        throw message;
    }

    char
    peekByte()
    {
        while (pos_ < text_.size() && isSpace(text_[pos_]))
            ++pos_;
        if (pos_ >= text_.size())
            fail("unexpected end of JSON document");
        return text_[pos_];
    }

    void
    expect(char c)
    {
        if (peekByte() != c)
            fail("expected '" + std::string(1, c) + "' at byte "
                 + std::to_string(pos_) + " of JSON document");
        ++pos_;
    }

    /** Unescaped bytes are written through a raw pointer into room that
     *  doubles on demand: result documents embedded in a response carry an
     *  escape every few bytes, and an append per stretch costs more than
     *  the bytes it copies. Plain stretches move 8 bytes at a time. */
    std::string_view
    stringView(std::string &out)
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
                fail("unsupported JSON escape '\\" + std::string(1, e) + "'");
            }
        }
        out.resize(static_cast<std::size_t>(p - out.data()));
        pos_ = static_cast<std::size_t>(in - text_.data());
        expect('"');
        return out;
    }

    std::string_view text_;
    std::size_t pos_ = 0;
};

/** Both readers on @p text, a string token followed by whitespace or
 *  nothing: same verdict, bytes and error. */
void
expectSame(const std::string &text, const std::string &context)
{
    std::string theirs, theirError = "stale";
    std::size_t end = 0;
    bool theirOk = ReferenceString(text).read(theirs, theirError, end);
    // The token closed early: the rest is garbage to both.
    const std::size_t garbage = text.find_first_not_of(" \t\n\v\f\r", end);
    if (theirOk && garbage != std::string::npos) {
        theirOk = false;
        theirError = "trailing garbage after JSON document at byte "
                     + std::to_string(garbage);
    }
    std::string mine, myError = "stale";
    JsonReader reader(text);
    bool ok = reader.read(myError, [&] { return reader.string(mine); });
    ASSERT_EQ(theirOk, ok) << context << "\n" << myError << "\n"
                           << theirError;
    if (ok)
        EXPECT_EQ(theirs, mine) << context;
    else
        EXPECT_EQ(theirError, myError) << context;
}

/** Escapes the block path must meet anywhere in a block: the first
 *  kDecodes decode (odd \u spellings included, as strtoul reads
 *  them), the rest fail or end the string. */
constexpr std::size_t kDecodes = 13;
const char *const kEscapes[] = {
    "\\\"",    "\\\\",    "\\/",     "\\n",     "\\t",     "\\r",
    "\\u0041", "\\u00e9", "\\u000a", "\\uffff", "\\u1g2z", "\\u+0x1",
    "\\u  12", "\\x",     "\\b",     "\\u12",   "\\",      "\"",
};

TEST(JsonUnescape, EscapeAtEveryOffsetOfABlock)
{
    std::mt19937_64 rng(11);
    const std::string padding(200, ' ');
    for (const char *escape : kEscapes) {
        for (std::size_t offset = 0; offset < 160; ++offset) {
            std::string body;
            for (std::size_t i = 0; i < offset; ++i)
                body += char('a' + rng() % 26);
            body += escape;
            // A second escape right after, then a plain tail.
            body += kEscapes[rng() % 6];
            for (int i = 0; i < 70; ++i)
                body += char('a' + rng() % 26);
            const std::string context =
                std::string(escape) + " at " + std::to_string(offset);
            expectSame("\"" + body + "\"" + padding, context);
            expectSame("\"" + body + "\"", context + ", no tail");
            expectSame("\"" + body + padding, context + ", unterminated");
            expectSame("\"" + body, context + ", cut");
            if (HasFatalFailure())
                return;
        }
    }
}

TEST(JsonUnescape, RandomDenseEscapes)
{
    // Result documents carry an escape every few bytes; these carry
    // one every 0-8, of every kind, at random lengths.
    std::mt19937_64 rng(1009);
    for (int round = 0; round < 3000; ++round) {
        std::string body;
        const std::size_t length = rng() % 700;
        while (body.size() < length) {
            const std::size_t plain = rng() % 9;
            for (std::size_t i = 0; i < plain; ++i) {
                // Any byte but the two that stop a stretch.
                char c = char(rng() % 256);
                body += c == '"' || c == '\\' ? 'q' : c;
            }
            // Three rounds in four escape only what decodes.
            body += kEscapes[rng() % (round % 4 == 3 ? std::size(kEscapes)
                                                     : kDecodes)];
        }
        const std::string context = "round " + std::to_string(round);
        expectSame("\"" + body + "\"   ", context);
        expectSame("\"" + body + "\"", context + ", no tail");
        expectSame("\"" + body + "\\", context + ", trailing backslash");
        expectSame("\"" + body + "\\u00", context + ", truncated \\u");
        if (HasFatalFailure())
            return;
    }
}

TEST(JsonUnescape, TokensAndTheirErrors)
{
    const std::string tail(150, ' ');
    for (const std::string &text : {
             std::string("\"\""),
             std::string("\"plain\""),
             std::string("\"a\\\\\\\"b\"") + tail,
             std::string("\"") + std::string(300, 'x') + "\\u12",
             std::string("\"") + std::string(300, 'x') + "\\",
             std::string("\"") + std::string(300, 'x') + "\\q" + tail,
             std::string("\"") + std::string(63, 'x') + "\\\"\"" + tail,
             std::string("\"") + std::string(64, 'x') + "\\\\\"" + tail,
             std::string("\"") + std::string(62, 'x') + "\\u0041\"" + tail,
             std::string("\"\\n") + std::string(126, 'y') + "\"" + tail,
             std::string("\"x\\n\" trailing") + tail,
         })
        expectSame(text, text.substr(0, 80));
}

} // namespace
} // namespace wbsim::obs

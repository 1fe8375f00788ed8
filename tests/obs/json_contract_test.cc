/**
 * @file
 * The JSON codec's byte-level contract, pinned against the iostream
 * and strtod/strtoull behaviour it must reproduce: double text equal
 * to `ostream << setprecision(17)`, the control-character escapes,
 * first-wins duplicate keys, and number tokens converted exactly as
 * strtod/strtoull convert them. Artifacts and wire fixtures written
 * before the buffered writer and flat parser must stay byte-identical
 * and decode the same way.
 */

#include <gtest/gtest.h>

#include <cfloat>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iomanip>
#include <limits>
#include <random>
#include <sstream>
#include <string>

#include "obs/json.hh"

namespace wbsim::obs
{
namespace
{

std::string
writerText(double v)
{
    std::string out;
    JsonWriter json(out, 0);
    json.value(v);
    return out;
}

std::string
ostreamText(double v)
{
    std::ostringstream os;
    os << std::setprecision(std::numeric_limits<double>::max_digits10)
       << v;
    return os.str();
}

std::uint64_t
bitsOf(double v)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    return bits;
}

double
fromBits(std::uint64_t bits)
{
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof v);
    return v;
}

TEST(JsonContract, DoublesMatchOstreamPrecision17)
{
    const double specials[] = {
        0.0,
        -0.0,
        1.0,
        -1.0,
        0.1,
        1.0 / 3.0,
        1e16,
        1e17,
        123456789012345678.0,
        DBL_MAX,
        -DBL_MAX,
        DBL_MIN,
        -DBL_MIN,
        std::numeric_limits<double>::denorm_min(),
        -std::numeric_limits<double>::denorm_min(),
        DBL_MIN / 3.0,
        fromBits(0x000fffffffffffffull), // largest subnormal
        std::numeric_limits<double>::infinity(),
        -std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::quiet_NaN(),
        -std::numeric_limits<double>::quiet_NaN(),
    };
    for (double v : specials)
        EXPECT_EQ(ostreamText(v), writerText(v))
            << "bits 0x" << std::hex << bitsOf(v);

    // Random bit patterns cover every exponent, subnormals and NaN
    // payloads included.
    std::mt19937_64 rng(20260117);
    for (int i = 0; i < 20000; ++i) {
        double v = fromBits(rng());
        ASSERT_EQ(ostreamText(v), writerText(v))
            << "bits 0x" << std::hex << bitsOf(v);
    }
    // Values in the range the artifacts actually hold: percentages,
    // rates, and occupancies.
    for (int i = 0; i < 20000; ++i) {
        double v = double(rng() % 1000000007) / double(1 + rng() % 997);
        ASSERT_EQ(ostreamText(v), writerText(v)) << v;
    }
}

TEST(JsonContract, IntegersMatchOstream)
{
    std::mt19937_64 rng(7);
    for (int i = 0; i < 2000; ++i) {
        std::uint64_t u = rng() >> (rng() % 64);
        auto s = static_cast<std::int64_t>(rng()) >> (rng() % 64);
        std::string out;
        JsonWriter json(out, 0);
        json.beginArray().value(u).value(s).endArray();
        std::ostringstream os;
        os << '[' << u << ',' << s << ']';
        ASSERT_EQ(os.str(), out);
    }
}

TEST(JsonContract, EveryControlCharacterEscapesAsBefore)
{
    for (int c = 0; c < 0x20; ++c) {
        std::string expected;
        if (c == '\n') {
            expected = "\\n";
        } else if (c == '\t') {
            expected = "\\t";
        } else if (c == '\r') {
            expected = "\\r";
        } else {
            char buf[8];
            std::snprintf(buf, sizeof buf, "\\u%04x", unsigned(c));
            expected = buf;
        }
        EXPECT_EQ(expected, jsonEscape(std::string(1, char(c))))
            << "control character " << c;
        // Mid-string, between unescaped stretches, too.
        EXPECT_EQ("ab" + expected + "cd",
                  jsonEscape("ab" + std::string(1, char(c)) + "cd"));
    }
    EXPECT_EQ("\\\"", jsonEscape("\""));
    EXPECT_EQ("\\\\", jsonEscape("\\"));
    // DEL and bytes >= 0x80 (UTF-8) pass through verbatim.
    EXPECT_EQ("\x7f\x80\xff/", jsonEscape("\x7f\x80\xff/"));

    std::string all;
    for (int c = 0; c < 256; ++c)
        all += char(c);
    std::string out;
    JsonWriter json(out, 0);
    json.value(all);
    JsonValue back = JsonValue::parse(out);
    EXPECT_EQ(all, back.string());
}

TEST(JsonContract, DuplicateKeyFirstOccurrenceWins)
{
    JsonValue doc =
        JsonValue::parse(R"({"a": 1, "b": true, "a": 2, "a": "x"})");
    EXPECT_EQ(1u, doc.at("a").uint());
    ASSERT_NE(nullptr, doc.find("a"));
    EXPECT_EQ(1u, doc.find("a")->uint());
    EXPECT_TRUE(doc.has("b"));
    EXPECT_EQ(nullptr, doc.find("c"));
    EXPECT_FALSE(doc.has("c"));
}

TEST(JsonContract, LeadingPlusIsAccepted)
{
    JsonValue plus = JsonValue::parse("+5");
    EXPECT_TRUE(plus.isUint());
    EXPECT_EQ(5u, plus.uint());
    EXPECT_EQ(5.0, plus.number());

    JsonValue frac = JsonValue::parse("+2.5");
    EXPECT_FALSE(frac.isUint());
    EXPECT_EQ(2.5, frac.number());

    JsonValue minus = JsonValue::parse("-5");
    EXPECT_FALSE(minus.isUint());
    EXPECT_EQ(-5.0, minus.number());
}

TEST(JsonContract, IntegersBeyond64BitsSaturateLikeStrtoull)
{
    for (const char *text :
         {"18446744073709551615", "18446744073709551616",
          "18446744073709551625", "99999999999999999999999999",
          "+18446744073709551616", "000000000000000000000000000042"}) {
        JsonValue v = JsonValue::parse(text);
        ASSERT_TRUE(v.isUint()) << text;
        EXPECT_EQ(std::strtoull(text, nullptr, 10), v.uint()) << text;
        EXPECT_EQ(std::strtod(text, nullptr), v.number()) << text;
    }
    EXPECT_EQ(std::numeric_limits<std::uint64_t>::max(),
              JsonValue::parse("18446744073709551616").uint());
}

TEST(JsonContract, NumberTokensConvertAsStrtod)
{
    // Everything the tokenizer takes as one number — a run of
    // [0-9.eE+-] — converts to strtod's value of that token, and
    // only a sign-free run of digits is integral.
    const char *tokens[] = {
        "1-2",    "1e",      "1e+",     "1.5.5",  "-",       "+",
        ".",      "--5",     "+-5",     "-+5",    "-.5",     ".5",
        "5.",     "e5",      "E",       "1e400",  "-1e400",  "1e-400",
        "-1e-400", "4.9e-324", "2.4703282292062328e-324",
        "2.4703282292062329e-324", "1.7976931348623157e308",
        "1.7976931348623159e308", "00012",  "1E5",     "-0",
        "0.1e-2-3", "+.e",    "12e3.4", "1e+-2",   "-0.0e0",
        "0.30000000000000004", "123456789012345678901234567890",
    };
    for (const char *text : tokens) {
        JsonValue v = JsonValue::parse(text);
        ASSERT_TRUE(v.isNumber()) << text;
        EXPECT_EQ(bitsOf(std::strtod(text, nullptr)), bitsOf(v.number()))
            << text;
    }
    EXPECT_TRUE(JsonValue::parse("+").isUint());
    EXPECT_EQ(0u, JsonValue::parse("+").uint());
    EXPECT_FALSE(JsonValue::parse("1-2").isUint());
    EXPECT_FALSE(JsonValue::parse("1e5").isUint());

    // Random tokens over the same alphabet.
    std::mt19937_64 rng(99);
    const char alphabet[] = "0123456789.eE+-";
    for (int i = 0; i < 20000; ++i) {
        std::string text;
        std::size_t length = 1 + rng() % 12;
        for (std::size_t k = 0; k < length; ++k)
            text += alphabet[rng() % (sizeof alphabet - 1)];
        JsonValue v = JsonValue::parse(text);
        ASSERT_EQ(bitsOf(std::strtod(text.c_str(), nullptr)),
                  bitsOf(v.number()))
            << text;
        bool digitsOnly =
            text.find_first_not_of("0123456789", text[0] == '+' ? 1 : 0)
            == std::string::npos;
        ASSERT_EQ(digitsOnly, v.isUint()) << text;
        if (digitsOnly) {
            ASSERT_EQ(std::strtoull(text.c_str(), nullptr, 10),
                      v.uint())
                << text;
        }
    }
}

TEST(JsonContract, StreamWriterFlushesLargeDocumentsEarly)
{
    // A stream-backed writer hands text over at the root close and
    // every ~64 KiB in between, with the same bytes as a string sink.
    std::ostringstream os;
    std::string expected;
    {
        JsonWriter stream(os);
        JsonWriter string(expected);
        stream.beginObject().key("values").beginArray();
        string.beginObject().key("values").beginArray();
        for (int i = 0; i < 20000; ++i) {
            stream.value(i * 0.25);
            string.value(i * 0.25);
        }
        EXPECT_GE(os.str().size(),
                  expected.size() - JsonWriter::kFlushBytes);
        EXPECT_LT(os.str().size(), expected.size());
        stream.endArray().endObject();
        string.endArray().endObject();
        EXPECT_EQ(expected, os.str());
    }
    EXPECT_EQ(expected, os.str());
}

TEST(JsonContract, MalformedInputKeepsItsDiagnostics)
{
    JsonValue out;
    std::string error;
    EXPECT_FALSE(JsonValue::tryParse("{\"a\": 1,}", out, error));
    EXPECT_EQ("expected '\"' at byte 8 of JSON document", error);
    EXPECT_FALSE(JsonValue::tryParse("[1] x", out, error));
    EXPECT_EQ("trailing garbage after JSON document at byte 4", error);
    EXPECT_FALSE(JsonValue::tryParse("\"abc", out, error));
    EXPECT_EQ("unexpected end of JSON document", error);
    EXPECT_FALSE(JsonValue::tryParse("\"\\u12\"", out, error));
    EXPECT_EQ("truncated \\u escape in JSON string", error);
    EXPECT_FALSE(JsonValue::tryParse("\"\\x\"", out, error));
    EXPECT_EQ("unsupported JSON escape '\\x'", error);
    EXPECT_FALSE(JsonValue::tryParse("tru", out, error));
    EXPECT_EQ("malformed JSON literal at byte 3", error);
    EXPECT_FALSE(JsonValue::tryParse("#", out, error));
    EXPECT_EQ("malformed JSON number at byte 0", error);
    EXPECT_FALSE(
        JsonValue::tryParse(std::string(65, '['), out, error));
    EXPECT_EQ("JSON nesting deeper than 64 levels", error);
}

} // namespace
} // namespace wbsim::obs

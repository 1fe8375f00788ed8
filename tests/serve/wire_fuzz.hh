/**
 * @file
 * The wire fuzzers' shared inputs: the committed golden frames
 * (tests/serve/golden) and a seeded mutator over them, so every test
 * that replays "the fuzzer's frames" replays the same bytes.
 */

#ifndef WBSIM_TESTS_SERVE_WIRE_FUZZ_HH
#define WBSIM_TESTS_SERVE_WIRE_FUZZ_HH

#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <random>
#include <sstream>
#include <string>

#ifndef WBSIM_SERVE_GOLDEN_DIR
#error "WBSIM_SERVE_GOLDEN_DIR must point at tests/serve/golden"
#endif

namespace wbsim::serve
{

/** The golden frames the mutator starts from, in replay order. */
inline const char *const kFuzzFrames[] = {
    "sweep_request.json",   "ping_request.json",
    "shutdown_request.json", "results_response.json",
    "retry_after_response.json",
};

/** The wire fuzzer's seed. */
inline constexpr std::uint64_t kFuzzSeed = 0x5eed'f422;

inline std::string
readGolden(const std::string &name)
{
    std::ifstream in(std::string(WBSIM_SERVE_GOLDEN_DIR) + "/" + name,
                     std::ios::binary);
    EXPECT_TRUE(in.good()) << name;
    std::stringstream text;
    text << in.rdbuf();
    return text.str();
}

/** Tokens worth splicing into JSON: structure, escapes, literals and
 *  numbers at and past the edges of uint64 and double. */
inline const char *const kDictionary[] = {
    "{",       "}",        "[",       "]",        ",",
    ":",       "\"",       "\\",      "\\u0000",  "\\u12",
    "null",    "true",     "false",   "-",        "+",
    "0",       "-0",       "1e999",   "-1e999",   "1e-999",
    "1-2",     "4.9e-324", "18446744073709551615",
    "18446744073709551616",
    "99999999999999999999999999999999999999999999",
    "4294967296", "\"sweep\"", "\"ping\"", "\"cells\"", "\"x\": 1",
};

/** One seeded mutation of @p frame. */
inline std::string
mutate(const std::string &frame, std::mt19937_64 &rng)
{
    std::string text = frame;
    auto pick = [&rng](std::size_t n) {
        return n == 0 ? 0 : std::size_t(rng() % n);
    };
    int rounds = 1 + int(rng() % 3);
    for (int round = 0; round < rounds; ++round) {
        switch (rng() % 7) {
        case 0: // flip one bit
            if (!text.empty())
                text[pick(text.size())] ^= char(1u << (rng() % 8));
            break;
        case 1: // overwrite one byte
            if (!text.empty())
                text[pick(text.size())] = char(rng() % 256);
            break;
        case 2: // insert a random byte
            text.insert(pick(text.size() + 1), 1, char(rng() % 256));
            break;
        case 3: // splice in a dictionary token
            text.insert(pick(text.size() + 1),
                        kDictionary[pick(std::size(kDictionary))]);
            break;
        case 4: // truncate
            text.resize(pick(text.size() + 1));
            break;
        case 5: { // deep nesting around a random point
            std::size_t depth = 1 + pick(100);
            std::size_t at = pick(text.size() + 1);
            text.insert(at, std::string(depth, rng() % 2 ? '[' : '{'));
            break;
        }
        case 6: { // replace a digit run with a huge number
            std::size_t at = text.find_first_of("0123456789",
                                                pick(text.size() + 1));
            if (at == std::string::npos)
                break;
            std::size_t end = text.find_first_not_of("0123456789", at);
            if (end == std::string::npos)
                end = text.size();
            const char *huge[] = {"18446744073709551616",
                                  "340282366920938463463374607431768211456",
                                  "1e400", "-1", "4294967296", "1.5"};
            text.replace(at, end - at, huge[pick(std::size(huge))]);
            break;
        }
        }
    }
    return text;
}

} // namespace wbsim::serve

#endif // WBSIM_TESTS_SERVE_WIRE_FUZZ_HH

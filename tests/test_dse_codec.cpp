// The scalar codec under checkpoints, wire frames and trajectory files:
// strict parsers, the hexfloat writer, the token reader, and a byte-level
// mutation sweep over every reader. Each truncation, single-bit flip and
// inserted sign/NUL/digit run of a golden payload must either parse or
// throw dse::PayloadError — no other exception, no crash, no sanitizer
// report.
#include "dse/codec.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <typeinfo>

#include "codec_fixtures.hpp"
#include "dse/trajectory_io.hpp"

namespace {

namespace d = ace::dse;
namespace dist = ace::dist;
using namespace std::string_literals;

TEST(CodecParsers, UnsignedTakesOnlyBareDigitsInRange) {
  EXPECT_EQ(d::parse_unsigned("0"), 0u);
  EXPECT_EQ(d::parse_unsigned("18446744073709551615"),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_FALSE(d::parse_unsigned("18446744073709551616"));  // Overflow.
  EXPECT_FALSE(d::parse_unsigned("-1"));                    // Sign.
  EXPECT_FALSE(d::parse_unsigned("+1"));
  EXPECT_FALSE(d::parse_unsigned("12x"));                   // Partial token.
  EXPECT_FALSE(d::parse_unsigned("1\0"s "2"));              // Embedded NUL.
  EXPECT_FALSE(d::parse_unsigned(" 1"));
  EXPECT_FALSE(d::parse_unsigned(""));
}

TEST(CodecParsers, IntIsRangeCheckedNotWrapped) {
  EXPECT_EQ(d::parse_int("-7"), -7);
  EXPECT_EQ(d::parse_int("2147483647"), std::numeric_limits<int>::max());
  EXPECT_EQ(d::parse_int("-2147483648"), std::numeric_limits<int>::min());
  EXPECT_FALSE(d::parse_int("2147483648"));  // Overflow.
  EXPECT_FALSE(d::parse_int("4294967304"));  // Would wrap to 8.
  EXPECT_FALSE(d::parse_int("3x"));          // Partial token.
  EXPECT_FALSE(d::parse_int("3\0"s));        // Embedded NUL.
  EXPECT_FALSE(d::parse_int("+3"));
  EXPECT_FALSE(d::parse_int("-"));
}

TEST(CodecParsers, DoubleMustBeTheWholeToken) {
  EXPECT_EQ(d::parse_double("0x1.8p+2"), 6.0);
  EXPECT_EQ(d::parse_double("1.5"), 1.5);
  EXPECT_EQ(d::parse_double("-inf"), -std::numeric_limits<double>::infinity());
  ASSERT_TRUE(d::parse_double("nan"));
  EXPECT_TRUE(std::isnan(*d::parse_double("nan")));
  EXPECT_FALSE(d::parse_double("1.5junk"));  // Partial token.
  EXPECT_FALSE(d::parse_double("0x"));
  EXPECT_FALSE(d::parse_double("1e999"));    // Overflow.
  EXPECT_FALSE(d::parse_double("1.5\0"s));   // Embedded NUL.
  EXPECT_FALSE(d::parse_double(" 1.5"));
  EXPECT_FALSE(d::parse_double(""));
}

TEST(CodecParsers, HexfloatRoundTripsEveryBitPattern) {
  for (const double v :
       {0.1, 1.0 / 3.0, -0.0, 5e-324, -1e300,
        std::numeric_limits<double>::infinity(),
        std::numeric_limits<double>::max(),
        std::numeric_limits<double>::quiet_NaN(),
        -std::numeric_limits<double>::quiet_NaN()}) {
    const std::optional<double> back = d::parse_double(d::hexfloat(v));
    ASSERT_TRUE(back) << d::hexfloat(v);
    EXPECT_EQ(std::memcmp(&*back, &v, sizeof v), 0) << d::hexfloat(v);
  }
  EXPECT_EQ(d::hexfloat(6.0), "0x1.8p+2");
}

TEST(CodecTokenReader, ReadsTypedTokensAndReportsTheConfiguredCodes) {
  d::TokenReader r("KEY 7 -3 0x1p-1 tail of line\nnext", "test",
                   d::FaultCode::kTruncatedPayload);
  r.expect("KEY");
  EXPECT_EQ(r.unsigned_integer("u"), 7u);
  EXPECT_EQ(r.integer("i"), -3);
  EXPECT_EQ(r.real("r"), 0.5);
  EXPECT_EQ(r.rest(), "tail of line");
  EXPECT_EQ(r.next("word"), "next");
  r.done("test");
  try {
    (void)r.next("missing");
    FAIL() << "read past the end";
  } catch (const d::PayloadError& error) {
    EXPECT_EQ(error.code(), d::FaultCode::kTruncatedPayload);
  }

  d::TokenReader framed("7 x", "test", d::FaultCode::kCorruptPayload);
  EXPECT_THROW(framed.done("7"), d::PayloadError);
  EXPECT_THROW(framed.expect("8"), d::PayloadError);
  try {
    (void)framed.integer("x");
    FAIL() << "parsed 'x'";
  } catch (const d::PayloadError& error) {
    EXPECT_EQ(error.code(), d::FaultCode::kCorruptPayload);
  }
  try {
    (void)framed.next("missing");
    FAIL() << "read past the end";
  } catch (const d::PayloadError& error) {
    EXPECT_EQ(error.code(), d::FaultCode::kCorruptPayload);
  }
}

// --- byte-mutation sweep --------------------------------------------------

/// Runs `parse` on `input`. It must return or throw PayloadError; returns
/// whether it returned.
template <class Parse>
bool parses_or_throws_typed(const Parse& parse, const std::string& input,
                            const std::string& label) {
  try {
    parse(input);
    return true;
  } catch (const d::PayloadError&) {
    return false;
  } catch (const std::exception& error) {
    ADD_FAILURE() << label << ": " << typeid(error).name() << ": "
                  << error.what();
  } catch (...) {
    ADD_FAILURE() << label << ": non-standard exception";
  }
  return false;
}

/// Every proper truncation and every single-bit flip of `seed`, plus, at
/// every offset, an inserted sign, NUL or run of digits: those turn counts
/// negative or huge and coordinates out of int range. A cut that drops
/// more than the final byte must never parse (the trailing "end" or
/// "#end rows=N" is gone or incomplete); `cut_must_fail` asks for that.
template <class Parse>
void sweep(const std::string& seed, const Parse& parse, bool cut_must_fail) {
  ASSERT_TRUE(parses_or_throws_typed(parse, seed, "seed"));
  for (std::size_t cut = 0; cut < seed.size(); ++cut) {
    const std::string label = "cut at " + std::to_string(cut);
    const bool parsed = parses_or_throws_typed(parse, seed.substr(0, cut), label);
    if (cut_must_fail && cut + 1 < seed.size())
      EXPECT_FALSE(parsed) << label;
  }
  for (std::size_t bit = 0; bit < seed.size() * 8; ++bit) {
    std::string flipped = seed;
    flipped[bit / 8] = static_cast<char>(flipped[bit / 8] ^ (1 << (bit % 8)));
    (void)parses_or_throws_typed(parse, flipped,
                                 "bit flip " + std::to_string(bit));
  }
  for (std::size_t at = 0; at <= seed.size(); ++at) {
    for (const std::string& insert : {"-"s, "\0"s, "9999999999"s}) {
      std::string grown = seed;
      grown.insert(at, insert);
      (void)parses_or_throws_typed(parse, grown,
                                   "insert at " + std::to_string(at));
    }
  }
}

TEST(CodecMutation, CheckpointReaderIsTypedUnderEveryMutation) {
  sweep(
      ace_test::kGoldenCheckpoint,
      [](const std::string& text) {
        std::istringstream in(text);
        (void)d::parse_checkpoint(in);
      },
      true);
}

TEST(CodecMutation, WireReaderIsTypedUnderEveryMutation) {
  for (const std::string& frame : ace_test::kGoldenFrames) {
    SCOPED_TRACE(frame);
    // Whole frames: the checksum catches nearly all of these first.
    sweep(
        frame,
        [](const std::string& line) {
          (void)dist::parse_message(dist::decode_frame(line));
        },
        false);
    // Re-framed payloads: the message parser sees every mutation itself.
    sweep(
        dist::decode_frame(frame),
        [](const std::string& payload) {
          (void)dist::parse_message(
              dist::decode_frame(dist::encode_frame(payload)));
        },
        false);
  }
}

TEST(CodecMutation, TrajectoryReaderIsTypedUnderEveryMutation) {
  const std::string path = ::testing::TempDir() + "ace_codec_mutation.csv";
  sweep(
      ace_test::kGoldenTrajectory,
      [&path](const std::string& bytes) {
        {
          std::ofstream out(path, std::ios::binary | std::ios::trunc);
          out << bytes;
        }
        (void)d::load_trajectory(path);
      },
      true);
  std::remove(path.c_str());
}

}  // namespace

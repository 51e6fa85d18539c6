#include "dse/trajectory_io.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "dse/fault.hpp"

namespace {

namespace d = ace::dse;

d::Trajectory sample_trajectory() {
  d::Trajectory t;
  t.configs = {{16, 16}, {15, 16}, {15, 15}};
  t.values = {90.25, 84.5, -3.75e-2};
  return t;
}

std::string temp_path(const char* name) {
  return testing::TempDir() + "/" + name;
}

TEST(TrajectoryIo, RoundTripPreservesEverything) {
  const auto path = temp_path("traj_roundtrip.csv");
  const auto original = sample_trajectory();
  d::save_trajectory(original, path);
  const auto loaded = d::load_trajectory(path);
  ASSERT_EQ(loaded.size(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(loaded.configs[i], original.configs[i]);
    EXPECT_DOUBLE_EQ(loaded.values[i], original.values[i]);
  }
  std::remove(path.c_str());
}

TEST(TrajectoryIo, SaveValidation) {
  const auto path = temp_path("traj_invalid.csv");
  d::Trajectory empty;
  EXPECT_THROW(d::save_trajectory(empty, path), std::invalid_argument);
  d::Trajectory ragged;
  ragged.configs = {{1, 2}};
  EXPECT_THROW(d::save_trajectory(ragged, path), std::invalid_argument);
  d::Trajectory mixed;
  mixed.configs = {{1, 2}, {1}};
  mixed.values = {1.0, 2.0};
  EXPECT_THROW(d::save_trajectory(mixed, path), std::invalid_argument);
  EXPECT_THROW(
      d::save_trajectory(sample_trajectory(), "/no-such-dir-xyz/t.csv"),
      std::runtime_error);
}

TEST(TrajectoryIo, LoadRejectsMissingFileAndBadContent) {
  EXPECT_THROW((void)d::load_trajectory("/no-such-file-xyz.csv"),
               std::runtime_error);

  const auto path = temp_path("traj_bad.csv");
  {
    std::ofstream out(path);
    out << "e0,e1,lambda\n";
    out << "1,2\n";  // Ragged.
  }
  EXPECT_THROW((void)d::load_trajectory(path), std::runtime_error);
  {
    std::ofstream out(path);
    out << "e0,lambda\n";
    out << "abc,1.5\n";  // Non-numeric.
  }
  EXPECT_THROW((void)d::load_trajectory(path), std::runtime_error);
  {
    std::ofstream out(path);
    out << "lambda\n";  // Too few columns.
  }
  EXPECT_THROW((void)d::load_trajectory(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(TrajectoryIo, LoadedTrajectoryReplaysIdentically) {
  // Replay statistics must be identical before and after a round trip.
  d::Trajectory t;
  for (int i = 0; i < 25; ++i) {
    t.configs.push_back({i, 2 * i});
    t.values.push_back(3.0 * i + 10.0);
  }
  const auto path = temp_path("traj_replay.csv");
  d::save_trajectory(t, path);
  const auto loaded = d::load_trajectory(path);

  d::PolicyOptions options;
  options.distance = 4;
  options.min_fit_points = 8;
  const auto a =
      d::replay_with_kriging(t, options, d::MetricKind::kAccuracyDb);
  const auto b =
      d::replay_with_kriging(loaded, options, d::MetricKind::kAccuracyDb);
  EXPECT_EQ(a.stats.interpolated, b.stats.interpolated);
  EXPECT_DOUBLE_EQ(a.mean_epsilon(), b.mean_epsilon());
  std::remove(path.c_str());
}

TEST(TrajectoryIo, EmptyLinesAreSkipped) {
  const auto path = temp_path("traj_blank.csv");
  {
    std::ofstream out(path);
    out << "e0,lambda\n";
    out << "3,1.5\n";
    out << "\n";
    out << "4,2.5\n";
    out << "#end rows=2\n";
  }
  const auto t = d::load_trajectory(path);
  EXPECT_EQ(t.size(), 2u);
  EXPECT_EQ(t.configs[1], (d::Config{4}));
  std::remove(path.c_str());
}

// A file cut off at a row boundary is indistinguishable from a shorter run
// without the trailer — it must fail typed, never load partially.
TEST(TrajectoryIo, TruncationIsDetectedAndTyped) {
  const auto path = temp_path("traj_truncated.csv");
  const auto original = sample_trajectory();
  d::save_trajectory(original, path);

  // Read the full file, then rewrite ever-shorter prefixes (cutting at
  // line boundaries first, then mid-line): every prefix must throw, and
  // the row-boundary cuts must classify as truncation specifically.
  std::string full;
  {
    std::ifstream in(path);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    full = buffer.str();
  }
  // Drop the trailer line.
  {
    std::ofstream out(path);
    out << full.substr(0, full.rfind("#end"));
  }
  try {
    (void)d::load_trajectory(path);
    FAIL() << "trailer-less file loaded";
  } catch (const d::PayloadError& error) {
    EXPECT_EQ(error.code(), d::FaultCode::kTruncatedPayload);
  }
  // Drop the last data row as well: the trailer row-count check fires.
  {
    std::string cut = full.substr(0, full.rfind("#end"));
    cut = cut.substr(0, cut.rfind("15,15"));
    std::ofstream out(path);
    out << cut << "#end rows=3\n";
  }
  try {
    (void)d::load_trajectory(path);
    FAIL() << "row-count mismatch loaded";
  } catch (const d::PayloadError& error) {
    EXPECT_EQ(error.code(), d::FaultCode::kTruncatedPayload);
  }
  // Cut mid-row: a ragged final line is truncation too.
  {
    std::ofstream out(path);
    out << "e0,e1,lambda\n16,16,90.25\n15,\n";
  }
  try {
    (void)d::load_trajectory(path);
    FAIL() << "mid-row cut loaded";
  } catch (const d::PayloadError& error) {
    EXPECT_EQ(error.code(), d::FaultCode::kTruncatedPayload);
  }
  std::remove(path.c_str());
}

TEST(TrajectoryIo, CorruptionIsDetectedAndTyped) {
  const auto path = temp_path("traj_corrupt.csv");
  // Garbage cell.
  {
    std::ofstream out(path);
    out << "e0,lambda\n3,oops\n#end rows=1\n";
  }
  try {
    (void)d::load_trajectory(path);
    FAIL() << "garbage cell loaded";
  } catch (const d::PayloadError& error) {
    EXPECT_EQ(error.code(), d::FaultCode::kCorruptPayload);
  }
  // Cells with a numeric prefix and trailing junk.
  for (const char* row : {"3x,1.5", "3,1.5junk"}) {
    {
      std::ofstream out(path);
      out << "e0,lambda\n" << row << "\n#end rows=1\n";
    }
    try {
      (void)d::load_trajectory(path);
      FAIL() << "partial cell loaded: " << row;
    } catch (const d::PayloadError& error) {
      EXPECT_EQ(error.code(), d::FaultCode::kCorruptPayload);
    }
  }
  // Unparseable trailer.
  {
    std::ofstream out(path);
    out << "e0,lambda\n3,1.5\n#end rows=banana\n";
  }
  try {
    (void)d::load_trajectory(path);
    FAIL() << "bad trailer loaded";
  } catch (const d::PayloadError& error) {
    EXPECT_EQ(error.code(), d::FaultCode::kCorruptPayload);
  }
  // Data after the trailer (concatenated files).
  {
    std::ofstream out(path);
    out << "e0,lambda\n3,1.5\n#end rows=1\n4,2.5\n";
  }
  try {
    (void)d::load_trajectory(path);
    FAIL() << "data after trailer loaded";
  } catch (const d::PayloadError& error) {
    EXPECT_EQ(error.code(), d::FaultCode::kCorruptPayload);
  }
  std::remove(path.c_str());
}

}  // namespace

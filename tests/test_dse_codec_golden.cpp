// Golden bytes of the three text formats that carry simulated results
// across processes: checkpoint files, coordinator/worker wire frames and
// trajectory CSV. The expected bytes in codec_fixtures.hpp were produced by
// the writers before they shared a codec; any drift breaks resume of old
// checkpoints, mixed-version workers (the FNV trailer covers the payload)
// or the replay files.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>

#include "codec_fixtures.hpp"
#include "dse/trajectory_io.hpp"

namespace {

namespace d = ace::dse;
namespace dist = ace::dist;

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

TEST(GoldenBytes, CheckpointBytesArePinned) {
  EXPECT_EQ(d::serialize_checkpoint(ace_test::golden_checkpoint()),
            ace_test::kGoldenCheckpoint);

  const std::string path = ::testing::TempDir() + "ace_golden_ckpt.txt";
  d::save_checkpoint(path, ace_test::golden_checkpoint());
  EXPECT_EQ(read_file(path), ace_test::kGoldenCheckpoint);
  std::remove(path.c_str());

  // The pinned bytes parse and re-render to themselves.
  std::istringstream in(ace_test::kGoldenCheckpoint);
  EXPECT_EQ(d::serialize_checkpoint(d::parse_checkpoint(in)),
            ace_test::kGoldenCheckpoint);

  // The same checkpoint as written while the two reserved v2 stats slots
  // still carried the factor-cache counters (6 and 4): it loads, and
  // re-renders with the reserved slots zeroed.
  std::istringstream legacy(
      "ACE-CHECKPOINT 3\n"
      "optimizer min_plus_one\n"
      "store 2 3 \n"
      "8 7 6 0x1.5555555555555p-2 \n"
      "7 7 6 inf \n"
      "quarantine 1 3 \n"
      "2 5 5 5 \n"
      "fit_events 2 6 11 \n"
      "stats 21 2 17 1 1 3 2 1 4 3 1 1 5 2 0x1.cp+1 0x1p-1 0x1.8p+1 0x1p+2 2 9 "
      "6 4 1 0x1.999999999999ap-4 0x0p+0 0x1.999999999999ap-4 "
      "0x1.999999999999ap-4 7 8 2 2 0x1p-3 0x1p-5 0x1.56e1fc2f8f359p-997 "
      "0x1p-2 \n"
      "cursor_min_plus 2 3 4 1 1 -inf -0x1.28p+3 \n"
      "w_min 3 6 6 5 \n"
      "w 3 7 6 5 \n"
      "decisions 3 0 2 1 \n"
      "cursor_sensitivity 1 0 1 2 nan \n"
      "levels 3 4 5 5 \n"
      "decisions 2 1 0 \n"
      "end\n");
  EXPECT_EQ(d::serialize_checkpoint(d::parse_checkpoint(legacy)),
            ace_test::kGoldenCheckpoint);
}

TEST(GoldenBytes, WireFramesArePinned) {
  const std::vector<std::string> frames = ace_test::golden_frames();
  ASSERT_EQ(frames.size(), ace_test::kGoldenFrames.size());
  for (std::size_t i = 0; i < frames.size(); ++i) {
    EXPECT_EQ(frames[i], ace_test::kGoldenFrames[i]);
    const dist::WireMessage msg =
        dist::parse_message(dist::decode_frame(ace_test::kGoldenFrames[i]));
    EXPECT_EQ(static_cast<std::size_t>(msg.type), i) << frames[i];
  }
}

TEST(GoldenBytes, TrajectoryFileIsPinned) {
  const std::string path = ::testing::TempDir() + "ace_golden_traj.csv";
  d::save_trajectory(ace_test::golden_trajectory(), path);
  EXPECT_EQ(read_file(path), ace_test::kGoldenTrajectory);

  // The pinned bytes load and re-save to themselves.
  const d::Trajectory loaded = d::load_trajectory(path);
  d::save_trajectory(loaded, path);
  EXPECT_EQ(read_file(path), ace_test::kGoldenTrajectory);
  std::remove(path.c_str());
}

}  // namespace

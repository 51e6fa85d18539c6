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

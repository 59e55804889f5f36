// Block-journal tests (PR 6): batch appends, replay stats, seek-to-sync
// incremental replay, mid-block corruption recovery, and files without
// block framing (a plain-text snapshot is fatal, a plain-text log is
// skipped and reported as corruption).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "util/blockio.hpp"
#include "util/journal.hpp"

namespace tdp::journal {
namespace {

class BlockJournalTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Per-test directory: parallel ctest runs sibling BlockJournal tests
    // concurrently, and a shared path races remove_all against them.
    dir_ = ::testing::TempDir() + "/journal_v2_test_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    path_ = dir_ + "/daemon";
  }

  [[nodiscard]] std::string log_path() const { return path_ + ".log"; }
  [[nodiscard]] std::string snap_path() const { return path_ + ".snap"; }

  [[nodiscard]] std::string read_file(const std::string& path) const {
    std::ifstream f(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(f), std::istreambuf_iterator<char>()};
  }

  std::string dir_, path_;
};

TEST_F(BlockJournalTest, LogIsBlockFormatted) {
  auto journal = Journal::open_file(path_);
  ASSERT_TRUE(journal.is_ok());
  ASSERT_TRUE(journal.value()->append({"job", {"1", "idle"}}).is_ok());
  const std::string log = read_file(log_path());
  ASSERT_GE(log.size(), 4u);
  EXPECT_EQ(log.substr(0, 4), "TDPJ");
}

TEST_F(BlockJournalTest, AppendBatchIsOneBlock) {
  auto journal = Journal::open_file(path_);
  ASSERT_TRUE(journal.is_ok());
  std::vector<Record> batch;
  for (int i = 0; i < 50; ++i) {
    batch.push_back({"job", {std::to_string(i), "idle"}});
  }
  ASSERT_TRUE(journal.value()->append_batch(batch).is_ok());
  ReplayStats stats;
  auto replayed = journal.value()->replay(&stats);
  ASSERT_TRUE(replayed.is_ok());
  EXPECT_EQ(replayed->size(), 50u);
  EXPECT_EQ(stats.records, 50u);
  EXPECT_EQ(stats.blocks, 1u);
  EXPECT_EQ(journal.value()->tail_size(), 50u);
}

TEST_F(BlockJournalTest, ReplayFromSkipsAlreadySeenBlocks) {
  auto journal = Journal::open_file(path_);
  ASSERT_TRUE(journal.is_ok());
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(journal.value()->append({"job", {std::to_string(i)}}).is_ok());
  }
  auto checkpoint = journal.value()->log_position();
  ASSERT_TRUE(checkpoint.is_ok());
  EXPECT_EQ(checkpoint.value(), std::filesystem::file_size(log_path()));
  for (int i = 5; i < 8; ++i) {
    ASSERT_TRUE(journal.value()->append({"job", {std::to_string(i)}}).is_ok());
  }
  ReplayStats stats;
  auto delta = journal.value()->replay_from(checkpoint.value(), &stats);
  ASSERT_TRUE(delta.is_ok()) << delta.status().to_string();
  ASSERT_EQ(delta->size(), 3u);
  EXPECT_EQ(delta->at(0).fields[0], "5");
  EXPECT_EQ(delta->at(2).fields[0], "7");
  EXPECT_EQ(stats.blocks, 3u);

  // A checkpoint taken at the current tail yields an empty delta.
  auto tail = journal.value()->log_position();
  ASSERT_TRUE(tail.is_ok());
  auto empty = journal.value()->replay_from(tail.value());
  ASSERT_TRUE(empty.is_ok());
  EXPECT_TRUE(empty->empty());

  // A position past the end is a caller bug, not silently empty.
  EXPECT_FALSE(journal.value()->replay_from(tail.value() + 1).is_ok());
}

TEST_F(BlockJournalTest, ReplayFromWorksInMemory) {
  auto journal = Journal::in_memory();
  ASSERT_TRUE(journal->append({"a", {"1"}}).is_ok());
  auto pos = journal->log_position();
  ASSERT_TRUE(pos.is_ok());
  ASSERT_TRUE(journal->append({"b", {"2"}}).is_ok());
  auto delta = journal->replay_from(pos.value());
  ASSERT_TRUE(delta.is_ok());
  ASSERT_EQ(delta->size(), 1u);
  EXPECT_EQ(delta->at(0).type, "b");
}

TEST_F(BlockJournalTest, MidLogCorruptionLosesOneBlockNotTheTail) {
  {
    auto journal = Journal::open_file(path_);
    ASSERT_TRUE(journal.is_ok());
    for (int i = 0; i < 10; ++i) {
      ASSERT_TRUE(journal.value()->append({"job", {std::to_string(i)}}).is_ok());
    }
  }
  // Flip one byte inside the middle of the log: one block's CRC dies, the
  // sync scan must find the next block and keep everything after it.
  {
    std::fstream f(log_path(), std::ios::in | std::ios::out | std::ios::binary);
    const auto size = std::filesystem::file_size(log_path());
    f.seekp(static_cast<std::streamoff>(size / 2));
    char byte = 0;
    f.read(&byte, 1);
    f.seekp(static_cast<std::streamoff>(size / 2));
    byte = static_cast<char>(byte ^ 0x40);
    f.write(&byte, 1);
  }
  auto reopened = Journal::open_file(path_);
  ASSERT_TRUE(reopened.is_ok());
  ReplayStats stats;
  auto replayed = reopened.value()->replay(&stats);
  ASSERT_TRUE(replayed.is_ok()) << replayed.status().to_string();
  EXPECT_EQ(stats.resyncs, 1u);
  EXPECT_GT(stats.bytes_skipped, 0u);
  // Exactly one block (one record) lost; first and last records survive.
  ASSERT_EQ(replayed->size(), 9u);
  EXPECT_EQ(replayed->front().fields[0], "0");
  EXPECT_EQ(replayed->back().fields[0], "9");
}

TEST_F(BlockJournalTest, TornBlockTailIsDroppedAndReported) {
  {
    auto journal = Journal::open_file(path_);
    ASSERT_TRUE(journal.is_ok());
    ASSERT_TRUE(journal.value()->append({"job", {"1", "idle"}}).is_ok());
    ASSERT_TRUE(journal.value()->append({"job", {"2", "idle"}}).is_ok());
  }
  // Crash mid-append: chop the last block in half.
  const auto size = std::filesystem::file_size(log_path());
  std::filesystem::resize_file(log_path(), size - 10);
  auto reopened = Journal::open_file(path_);
  ASSERT_TRUE(reopened.is_ok());
  ReplayStats stats;
  auto replayed = reopened.value()->replay(&stats);
  ASSERT_TRUE(replayed.is_ok());
  ASSERT_EQ(replayed->size(), 1u);
  EXPECT_EQ(replayed->at(0).fields[0], "1");
  EXPECT_TRUE(stats.torn_tail);
}

TEST_F(BlockJournalTest, SnapshotCorruptionIsFatalNotSilent) {
  {
    auto journal = Journal::open_file(path_);
    ASSERT_TRUE(journal.is_ok());
    ASSERT_TRUE(journal.value()->write_snapshot({{"job", {"1", "done"}}}).is_ok());
  }
  {
    std::fstream f(snap_path(), std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(blockio::kHeaderSize));
    const char garbage = '\x7E';
    f.write(&garbage, 1);
  }
  // The log tolerates damage (it has newer data to save); the snapshot is
  // the base image - losing part of it silently would resurrect deleted
  // state, so replay must refuse. open_file replays to recover the tail
  // count, so the refusal surfaces right at open.
  EXPECT_FALSE(Journal::open_file(path_).is_ok());
}

TEST_F(BlockJournalTest, TextSnapshotIsRejected) {
  // Plain tab-separated lines with no block framing: the snapshot is
  // written atomically, so a file without the sync marker is damage.
  {
    std::ofstream snap(snap_path(), std::ios::binary);
    snap << "job\t1\tidle\n"
         << "job\t2\trunning\n";
  }
  auto journal = Journal::open_file(path_);
  ASSERT_FALSE(journal.is_ok());
  EXPECT_EQ(journal.status().code(), ErrorCode::kInvalidArgument);
}

TEST_F(BlockJournalTest, TextLogIsReportedAsCorruption) {
  const std::string text = "job\t1\tidle\njob\t2\trunning\n";
  {
    std::ofstream log(log_path(), std::ios::binary);
    log << text;
  }
  auto journal = Journal::open_file(path_);
  ASSERT_TRUE(journal.is_ok()) << journal.status().to_string();
  ReplayStats stats;
  auto replayed = journal.value()->replay(&stats);
  ASSERT_TRUE(replayed.is_ok()) << replayed.status().to_string();
  EXPECT_TRUE(replayed->empty());
  EXPECT_EQ(stats.resyncs, 1u);
  EXPECT_EQ(stats.bytes_skipped, text.size());
  EXPECT_FALSE(stats.torn_tail);

  // Appends land as blocks after the damage, and replay resyncs onto them.
  ASSERT_TRUE(journal.value()->append({"job", {"3", "idle"}}).is_ok());
  auto again = journal.value()->replay(&stats);
  ASSERT_TRUE(again.is_ok());
  ASSERT_EQ(again->size(), 1u);
  EXPECT_EQ(again->at(0).fields[0], "3");
  EXPECT_EQ(stats.resyncs, 1u);
}

}  // namespace
}  // namespace tdp::journal

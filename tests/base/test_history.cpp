#include "base/history.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdio>
#include <string>
#include <vector>

#include "base/error.hpp"

namespace foam {
namespace {

std::string temp_path(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

TEST(History, RoundTripsFieldsScalarsAndSeries) {
  const std::string path = temp_path("hist1.foam");
  Field2Dd sst(6, 4);
  for (int j = 0; j < 4; ++j)
    for (int i = 0; i < 6; ++i) sst(i, j) = i + 10.0 * j;
  Field3Dd temp(3, 2, 5, 1.5);
  {
    HistoryWriter w(path);
    w.write("sst", sst);
    w.write("temp", temp);
    w.write_scalar("speedup", 6000.0);
    w.write_series("nino", {1.0, -0.5, 2.25});
  }
  HistoryReader r(path);
  ASSERT_EQ(r.records().size(), 4u);
  const auto& rec = r.find("sst");
  ASSERT_EQ(rec.dims.size(), 2u);
  EXPECT_EQ(rec.dims[0], 6);
  EXPECT_EQ(rec.dims[1], 4);
  EXPECT_DOUBLE_EQ(rec.data[2 * 6 + 3], 3.0 + 20.0);
  EXPECT_EQ(r.find("temp").dims.size(), 3u);
  EXPECT_DOUBLE_EQ(r.find("speedup").data[0], 6000.0);
  const auto& series = r.find("nino");
  ASSERT_EQ(series.data.size(), 3u);
  EXPECT_DOUBLE_EQ(series.data[2], 2.25);
}

TEST(History, HasAndMissing) {
  const std::string path = temp_path("hist2.foam");
  {
    HistoryWriter w(path);
    w.write_scalar("x", 1.0);
  }
  HistoryReader r(path);
  EXPECT_TRUE(r.has("x"));
  EXPECT_FALSE(r.has("y"));
  EXPECT_THROW(r.find("y"), Error);
}

TEST(History, RepeatedNamesKeepOrder) {
  const std::string path = temp_path("hist3.foam");
  {
    HistoryWriter w(path);
    w.write_scalar("t", 1.0);
    w.write_scalar("t", 2.0);
  }
  HistoryReader r(path);
  ASSERT_EQ(r.records().size(), 2u);
  // find returns the first record; both are present in file order.
  EXPECT_DOUBLE_EQ(r.find("t").data[0], 1.0);
  EXPECT_DOUBLE_EQ(r.records()[1].data[0], 2.0);
}

TEST(History, RejectsNonHistoryFile) {
  const std::string path = temp_path("not_hist.bin");
  FILE* f = std::fopen(path.c_str(), "wb");
  std::fputs("garbage garbage garbage", f);
  std::fclose(f);
  EXPECT_THROW(HistoryReader r(path), Error);
}

TEST(History, MissingFileThrows) {
  EXPECT_THROW(HistoryReader r(temp_path("does_not_exist.foam")), Error);
}

TEST(History, EmptySeriesRoundTrips) {
  const std::string path = temp_path("hist_empty.foam");
  {
    HistoryWriter w(path);
    w.write_series("empty", {});
    w.write_scalar("after", 7.0);
  }
  HistoryReader r(path);
  const auto& rec = r.find("empty");
  ASSERT_EQ(rec.dims.size(), 1u);
  EXPECT_EQ(rec.dims[0], 0);
  EXPECT_TRUE(rec.data.empty());
  EXPECT_DOUBLE_EQ(r.find("after").data[0], 7.0);
}

TEST(History, LongRecordNameRejectedAtWriteTime) {
  HistoryWriter w(temp_path("hist_longname.foam"));
  const std::string name(5000, 'n');
  EXPECT_THROW(w.write_scalar(name, 1.0), Error);
  // The longest legal name still round-trips.
  const std::string edge(4095, 'e');
  w.write_scalar(edge, 2.0);
}

TEST(History, FileAppearsOnlyAfterClose) {
  const std::string path = temp_path("hist_atomic.foam");
  std::remove(path.c_str());
  {
    HistoryWriter w(path);
    w.write_scalar("x", 1.0);
    // Still streaming into path.tmp: the final path must not exist yet, so
    // a crash here can never leave a partial file where a reader looks.
    FILE* f = std::fopen(path.c_str(), "rb");
    EXPECT_EQ(f, nullptr);
    w.close();
    f = std::fopen(path.c_str(), "rb");
    ASSERT_NE(f, nullptr);
    std::fclose(f);
  }
  // The temporary is gone after the rename.
  FILE* tmp = std::fopen((path + ".tmp").c_str(), "rb");
  EXPECT_EQ(tmp, nullptr);
  EXPECT_DOUBLE_EQ(HistoryReader(path).find("x").data[0], 1.0);
}

TEST(History, ExplicitCloseThenDestructorIsClean) {
  const std::string path = temp_path("hist_double_close.foam");
  HistoryWriter w(path);
  w.write_scalar("x", 3.0);
  w.close();
  EXPECT_THROW(w.write_scalar("y", 4.0), Error);  // closed writer refuses
}

/// Drop the last \p n bytes of \p path in place.
void truncate_tail(const std::string& path, long n) {
  FILE* f = std::fopen(path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::fseek(f, 0, SEEK_END);
  const long len = std::ftell(f);
  std::vector<char> bytes(static_cast<std::size_t>(len));
  std::fseek(f, 0, SEEK_SET);
  ASSERT_EQ(std::fread(bytes.data(), 1, bytes.size(), f), bytes.size());
  std::fclose(f);
  f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fwrite(bytes.data(), 1, static_cast<std::size_t>(len - n), f);
  std::fclose(f);
}

TEST(History, TruncatedFileRejected) {
  const std::string path = temp_path("hist_trunc.foam");
  {
    HistoryWriter w(path);
    w.write_series("series", {1.0, 2.0, 3.0});
  }
  // Losing the tail removes the footer (and possibly record bytes): the
  // reader must refuse rather than silently load partial state.
  truncate_tail(path, 24);
  EXPECT_THROW(HistoryReader r(path), Error);
}

TEST(History, MissingFooterRejected) {
  const std::string path = temp_path("hist_nofooter.foam");
  {
    HistoryWriter w(path);
    w.write_scalar("x", 1.0);
  }
  // Exactly the footer (u32 marker + u64 count + u64 hash = 20 bytes):
  // every record intact, but no proof the writer finished.
  truncate_tail(path, 20);
  EXPECT_THROW(HistoryReader r(path), Error);
}

TEST(History, GarbageTailRejected) {
  const std::string path = temp_path("hist_tail.foam");
  {
    HistoryWriter w(path);
    w.write_scalar("x", 1.0);
  }
  FILE* f = std::fopen(path.c_str(), "ab");
  ASSERT_NE(f, nullptr);
  std::fputs("junk", f);
  std::fclose(f);
  EXPECT_THROW(HistoryReader r(path), Error);
}

TEST(History, CorruptedRecordByteRejected) {
  const std::string path = temp_path("hist_flip.foam");
  {
    HistoryWriter w(path);
    w.write_series("series", {1.0, 2.0, 3.0});
  }
  FILE* f = std::fopen(path.c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  // Flip one payload byte mid-file; the footer checksum must catch it.
  std::fseek(f, 8 + 4 + 6 + 4 + 8 + 3, SEEK_SET);
  std::fputc(0x5A, f);
  std::fclose(f);
  EXPECT_THROW(HistoryReader r(path), Error);
}

}  // namespace
}  // namespace foam

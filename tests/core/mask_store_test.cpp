// The caller-pass mask store: its run-length code is lossless for any byte
// values and run lengths, and the store hands masks back in frame order
// whether they stayed resident or spilled to disk.
#include "core/mask_store.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "imaging/draw.h"

namespace bb::core {
namespace {

using imaging::Bitmap;

Bitmap Decoded(const std::vector<std::uint8_t>& runs, int w, int h) {
  Bitmap out(w, h);
  EXPECT_TRUE(DecodeMaskRuns(runs, &out));
  return out;
}

TEST(MaskRunsTest, RoundTripsMasksAndArbitraryBytes) {
  std::vector<std::uint8_t> runs;
  // Empty, full, and a typical blob mask.
  Bitmap blob(192, 144);
  EncodeMaskRuns(blob, &runs);
  EXPECT_EQ(Decoded(runs, 192, 144), blob);
  imaging::FillRect(blob, {40, 20, 90, 124});
  EncodeMaskRuns(blob, &runs);
  EXPECT_EQ(Decoded(runs, 192, 144), blob);
  EXPECT_LT(runs.size(), blob.pixel_count() / 8);
  // Any byte value, runs of 1 through 3 pixels.
  Bitmap noise(61, 17);
  std::uint64_t s = 99;
  for (auto& p : noise.pixels()) {
    s = s * 6364136223846793005ull + 1442695040888963407ull;
    p = static_cast<std::uint8_t>((s >> 58) < 40 ? (s >> 33) : 7);
  }
  EncodeMaskRuns(noise, &runs);
  EXPECT_EQ(Decoded(runs, 61, 17), noise);
  // One run longer than two LEB128 bytes carry.
  Bitmap big(400, 300, imaging::kMaskSet);
  EncodeMaskRuns(big, &runs);
  EXPECT_EQ(runs.size(), 4u);  // value + 3 length bytes (120000 > 2^14)
  EXPECT_EQ(Decoded(runs, 400, 300), big);
}

TEST(MaskRunsTest, RejectsMalformedCodes) {
  Bitmap mask(8, 4);
  imaging::FillRect(mask, {2, 1, 3, 2});
  std::vector<std::uint8_t> runs;
  EncodeMaskRuns(mask, &runs);
  Bitmap out(8, 4);
  // Too short, truncated length, too long, wrong shape.
  EXPECT_FALSE(DecodeMaskRuns(std::span(runs).first(runs.size() - 2), &out));
  EXPECT_FALSE(DecodeMaskRuns(std::vector<std::uint8_t>{0, 0x80}, &out));
  std::vector<std::uint8_t> longer = runs;
  longer.insert(longer.end(), {0, 1});
  EXPECT_FALSE(DecodeMaskRuns(longer, &out));
  Bitmap wrong(8, 5);
  EXPECT_FALSE(DecodeMaskRuns(runs, &wrong));
  EXPECT_FALSE(DecodeMaskRuns(std::vector<std::uint8_t>{0, 0}, &out));
}

class MaskStoreTest : public ::testing::Test {
 protected:
  void TearDown() override { MaskStore::SetResidentCapForTest(0); }

  // Frame i's mask: a bar of width i + 1, so every record differs.
  static Bitmap MaskOf(int i) {
    Bitmap m(32, 8);
    imaging::FillRect(m, {0, 2, i + 1, 4});
    return m;
  }
};

TEST_F(MaskStoreTest, HandsMasksBackInOrderAcrossTheSpill) {
  for (std::size_t cap : {std::size_t{0}, std::size_t{1}, std::size_t{40}}) {
    MaskStore::SetResidentCapForTest(cap);  // 0 = the default: no spill
    MaskStore store;
    store.Clear();
    std::vector<std::uint8_t> runs;
    for (int i = 0; i < 12; ++i) {
      EncodeMaskRuns(MaskOf(i), &runs);
      ASSERT_TRUE(store.Put(i, runs).ok());
    }
    EXPECT_EQ(store.spilled_masks() > 0, cap > 0) << cap;
    // Frames 4 and 9 were quarantined after the caller pass: skipped.
    for (int i : {0, 1, 2, 3, 5, 6, 7, 8, 10, 11}) {
      ASSERT_TRUE(store.Take(i, &runs).ok()) << "cap " << cap << " frame " << i;
      EXPECT_EQ(Decoded(runs, 32, 8), MaskOf(i)) << "cap " << cap;
    }
  }
}

TEST_F(MaskStoreTest, MissingMaskIsAnInternalError) {
  MaskStore store;
  store.Clear();
  std::vector<std::uint8_t> runs;
  EncodeMaskRuns(MaskOf(0), &runs);
  ASSERT_TRUE(store.Put(2, runs).ok());
  const Status missing = store.Take(1, &runs);
  EXPECT_EQ(missing.code(), StatusCode::kInternal);
  EXPECT_THROW((void)store.Put(5, runs), std::logic_error);
}

}  // namespace
}  // namespace bb::core

#include "net/trace.h"

#include <gtest/gtest.h>

#include <cctype>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/rng.h"

namespace sensei::net {
namespace {

TEST(Trace, ConstructionValidation) {
  EXPECT_THROW(ThroughputTrace("x", {}), std::runtime_error);
  EXPECT_THROW(ThroughputTrace("x", {100.0}, 0.0), std::runtime_error);
  EXPECT_THROW(ThroughputTrace("x", {-5.0}), std::runtime_error);
}

TEST(Trace, ThroughputAtAndWrap) {
  ThroughputTrace t("t", {100, 200, 300}, 1.0);
  EXPECT_DOUBLE_EQ(t.throughput_at(0.0), 100);
  EXPECT_DOUBLE_EQ(t.throughput_at(1.5), 200);
  EXPECT_DOUBLE_EQ(t.throughput_at(2.9), 300);
  EXPECT_DOUBLE_EQ(t.throughput_at(3.0), 100);  // wraps
  EXPECT_DOUBLE_EQ(t.throughput_at(7.2), 200);
  EXPECT_DOUBLE_EQ(t.throughput_at(-1.0), 100);  // clamped to start
}

TEST(Trace, MeanAndStddev) {
  ThroughputTrace t("t", {100, 300}, 1.0);
  EXPECT_DOUBLE_EQ(t.mean_kbps(), 200);
  EXPECT_DOUBLE_EQ(t.stddev_kbps(), 100);
  EXPECT_DOUBLE_EQ(t.duration_s(), 2.0);
}

TEST(Trace, DownloadTimeSimpleCase) {
  // Constant 1000 Kbps: 125000 bytes = 1 Mbit -> 1 s + rtt.
  ThroughputTrace t("t", std::vector<double>(10, 1000.0), 1.0);
  EXPECT_NEAR(t.download_time_s(125000, 0.0, 0.08), 1.08, 1e-9);
}

TEST(Trace, DownloadTimeIntegratesSteps) {
  // 1 Mbit to download: first second at 500 Kbps moves 0.5 Mbit, second
  // second at 1000 Kbps moves the rest in 0.5 s.
  ThroughputTrace t("t", {500, 1000, 1000}, 1.0);
  EXPECT_NEAR(t.download_time_s(125000, 0.0, 0.0), 1.5, 1e-9);
}

TEST(Trace, DownloadTimeMidIntervalStart) {
  ThroughputTrace t("t", {1000, 2000}, 1.0);
  // Start at 0.5: 0.5 s at 1000 (0.5 Mbit), then at 2000 the remaining
  // 0.5 Mbit takes 0.25 s.
  EXPECT_NEAR(t.download_time_s(125000, 0.5, 0.0), 0.75, 1e-9);
}

TEST(Trace, DownloadTimeZeroBytes) {
  ThroughputTrace t("t", {1000}, 1.0);
  EXPECT_DOUBLE_EQ(t.download_time_s(0.0, 0.0, 0.08), 0.08);
}

TEST(Trace, DownloadSurvivesZeroThroughputStretch) {
  ThroughputTrace t("t", {0, 0, 1000}, 1.0);
  // Two dead seconds, then 1 s of transfer.
  EXPECT_NEAR(t.download_time_s(125000, 0.0, 0.0), 3.0, 1e-9);
}

TEST(Trace, AllZeroLoopingTraceIsAnOutage) {
  // The old integrator walked 10,000 intervals and then returned a finite
  // time as if the chunk had completed. A dead link must surface as an
  // outage: advance() reports it and download_time_s is unbounded.
  ThroughputTrace t("dead", {0, 0, 0, 0}, 1.0);
  TransferResult r = t.advance(1000.0, 2.5);
  EXPECT_FALSE(r.completed);
  EXPECT_TRUE(std::isinf(r.elapsed_s));
  EXPECT_TRUE(std::isinf(t.download_time_s(1000.0, 0.0, 0.08)));
}

TEST(Trace, FiniteTraceEndsInOutageMidTransfer) {
  // 2 s of 1000 Kbps, finite: a 0.5 Mbit chunk started at 1.8 can never
  // finish — 0.2 s of capacity remain. Looping, it completes fine.
  ThroughputTrace looping("loop", {1000, 1000}, 1.0);
  ThroughputTrace finite = looping.as_finite();
  EXPECT_TRUE(finite.finite());
  EXPECT_FALSE(looping.finite());
  EXPECT_TRUE(looping.advance(62500.0, 1.8).completed);
  TransferResult r = finite.advance(62500.0, 1.8);
  EXPECT_FALSE(r.completed);
  // Past the end a finite trace reads 0 Kbps; in range both agree.
  EXPECT_DOUBLE_EQ(finite.throughput_at(2.1), 0.0);
  EXPECT_DOUBLE_EQ(looping.throughput_at(2.1), 1000.0);
  EXPECT_DOUBLE_EQ(finite.throughput_at(1.5), 1000.0);
}

TEST(Trace, FiniteTraceCompletesExactlyAtTheEnd) {
  // Exactly enough capacity: 1 Mbit over the last second of a finite trace.
  ThroughputTrace t = ThroughputTrace("edge", {1000.0}, 1.0).as_finite();
  TransferResult r = t.advance(125000.0, 0.0);
  EXPECT_TRUE(r.completed);
  EXPECT_NEAR(r.elapsed_s, 1.0, 1e-12);
  EXPECT_FALSE(t.advance(125001.0, 0.0).completed);
}

TEST(Trace, NonDyadicIntervalBoundariesMakeProgress) {
  // interval_s = 0.1 (real 100 ms captures): at boundaries like t = 4.3,
  // (floor(t/0.1)+1)*0.1 equals t in floating point — the old walk got
  // span 0 and spun forever once the iteration cap was removed. The
  // index-based walk must cross hundreds of such boundaries and finish.
  ThroughputTrace t("fcc-100ms", std::vector<double>(100, 1000.0), 0.1);
  // 10 Mbit at 1000 Kbps: exactly 10 s spanning 100 boundaries, looping.
  TransferResult r = t.advance(1250000.0, 0.0);
  EXPECT_TRUE(r.completed);
  EXPECT_NEAR(r.elapsed_s, 10.0, 1e-6);
  // Start exactly on the troublesome boundary family too.
  TransferResult r2 = t.advance(125000.0, 4.3);
  EXPECT_TRUE(r2.completed);
  EXPECT_NEAR(r2.elapsed_s, 1.0, 1e-6);
  // And an all-zero 100 ms trace still reads as an outage, not a hang.
  ThroughputTrace dead("dead-100ms", std::vector<double>(100, 0.0), 0.1);
  EXPECT_FALSE(dead.advance(1000.0, 4.3).completed);
}

TEST(Trace, NonFiniteWallClockReadsAsDeadLink) {
  // An earlier outage propagates a +inf wall clock into later queries (the
  // frozen legacy engine and the offline planner do exactly this). Those
  // must degrade to "dead link", not undefined index arithmetic.
  ThroughputTrace t("t", {1000, 2000}, 1.0);
  double inf = std::numeric_limits<double>::infinity();
  EXPECT_DOUBLE_EQ(t.throughput_at(inf), 0.0);
  EXPECT_DOUBLE_EQ(t.throughput_at(std::nan("")), 0.0);
  TransferResult r = t.advance(1000.0, inf);
  EXPECT_FALSE(r.completed);
  EXPECT_TRUE(std::isinf(t.download_time_s(1000.0, inf, 0.08)));
}

TEST(Trace, ConstructionRejectsNonFiniteValues) {
  double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(ThroughputTrace("x", {100.0, inf}), std::runtime_error);
  EXPECT_THROW(ThroughputTrace("x", {std::nan("")}), std::runtime_error);
  EXPECT_THROW(ThroughputTrace("x", {100.0}, std::nan("")), std::runtime_error);
}

TEST(Trace, RttPlacedBeforeTheTransfer) {
  // 1000 Kbps then dead then 1000 Kbps. With rtt = 0.5 the transfer starts
  // at t = 0.5 and only 0.5 s of the first interval's capacity is usable.
  ThroughputTrace t("gap", {1000, 0, 1000}, 1.0);
  // 0.75 Mbit: 0.5 s of capacity in [0.5,1), dead [1,2), 0.25 s into [2,3).
  EXPECT_NEAR(t.download_time_s(93750.0, 0.0, 0.5), 0.5 + 1.75, 1e-9);
  // Zero-byte request still costs the round trip.
  EXPECT_DOUBLE_EQ(t.download_time_s(0.0, 0.0, 0.5), 0.5);
}

TEST(Trace, ScaledMultipliesSamples) {
  ThroughputTrace t("t", {100, 200}, 1.0);
  ThroughputTrace s = t.scaled(0.5, "half");
  EXPECT_EQ(s.name(), "half");
  EXPECT_DOUBLE_EQ(s.mean_kbps(), 75.0);
  EXPECT_THROW(t.scaled(-1.0), std::runtime_error);
}

TEST(Trace, WithNoiseChangesSamplesButKeepsFloor) {
  ThroughputTrace t("t", std::vector<double>(500, 1000.0), 1.0);
  ThroughputTrace n = t.with_noise(400.0, 99, 50.0);
  ASSERT_EQ(n.sample_count(), t.sample_count());
  bool any_diff = false;
  for (size_t i = 0; i < n.sample_count(); ++i) {
    EXPECT_GE(n.samples_kbps()[i], 50.0);
    if (n.samples_kbps()[i] != 1000.0) any_diff = true;
  }
  EXPECT_TRUE(any_diff);
  // Deterministic for the same seed.
  ThroughputTrace n2 = t.with_noise(400.0, 99, 50.0);
  EXPECT_EQ(n.samples_kbps(), n2.samples_kbps());
}

TEST(Trace, CsvRoundTrip) {
  ThroughputTrace t("orig", {123.5, 456.25, 789.0}, 2.0);
  ThroughputTrace back = ThroughputTrace::from_csv("copy", t.to_csv());
  ASSERT_EQ(back.sample_count(), 3u);
  EXPECT_DOUBLE_EQ(back.interval_s(), 2.0);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_DOUBLE_EQ(back.samples_kbps()[i], t.samples_kbps()[i]);
  }

  // Bit-exact: non-dyadic intervals and samples, short and long traces (a
  // 200,000-row file's timestamps need every significant digit to stay
  // uniformly spaced). The CSV carries no finite flag; from_csv loops.
  util::Rng rng(0xc5f0);
  for (double interval : {1.0, 0.1, 1.0 / 3.0, 2.5}) {
    for (size_t count : {size_t{3}, size_t{200000}}) {
      SCOPED_TRACE("interval " + std::to_string(interval) + " samples " +
                   std::to_string(count));
      std::vector<double> samples(count);
      for (double& s : samples) s = rng.uniform(0.0, 9000.0);
      samples[0] = 1234.5678;
      const ThroughputTrace orig("orig", samples, interval, true);
      const ThroughputTrace copy = ThroughputTrace::from_csv("copy", orig.to_csv());
      ASSERT_EQ(copy.sample_count(), count);
      EXPECT_EQ(copy.interval_s(), interval);
      EXPECT_TRUE(copy.samples_kbps() == orig.samples_kbps());
      EXPECT_FALSE(copy.finite());
    }
  }

  // A subnormal sample reads back as itself: its decimal form underflows
  // in strtod, which is not a malformed cell.
  const ThroughputTrace tiny("tiny", {1000.0, 4.9e-320, 2000.0}, 1.0);
  EXPECT_TRUE(ThroughputTrace::from_csv("copy", tiny.to_csv()).samples_kbps() ==
              tiny.samples_kbps());
}


TEST(Trace, FromCsvSkipsBlankAndCommentLines) {
  ThroughputTrace t = ThroughputTrace::from_csv(
      "x", "# a captured trace\ntime_s,throughput_kbps\n\n0,100\n  \n1,200\n# tail\n");
  ASSERT_EQ(t.sample_count(), 2u);
  EXPECT_DOUBLE_EQ(t.samples_kbps()[1], 200.0);
  EXPECT_DOUBLE_EQ(t.interval_s(), 1.0);
}

namespace {

// Asserts from_csv throws and the message carries the expected fragment
// (in particular the 1-based line number of the offending row).
void expect_csv_error(const std::string& csv, const std::string& fragment) {
  try {
    ThroughputTrace::from_csv("bad", csv);
    FAIL() << "expected from_csv to throw for: " << csv;
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find(fragment), std::string::npos)
        << "message '" << e.what() << "' lacks '" << fragment << "'";
  }
}

}  // namespace

TEST(Trace, FromCsvRejectsNonMonotonicTimestampsWithLineNumber) {
  expect_csv_error("time_s,throughput_kbps\n0,100\n2,200\n1,300\n", "line 4");
  expect_csv_error("0,100\n0,200\n", "non-monotonic");
}

TEST(Trace, FromCsvRejectsEmpty) {
  // No data rows: the line named is where one was expected, the end of the
  // input.
  expect_csv_error("", "line 1");
  expect_csv_error("time_s,throughput_kbps\n", "line 2");
}

TEST(Trace, FromCsvRejectsNonUniformSpacingWithLineNumber) {
  // 0,1,3: the second gap (2 s) disagrees with the first (1 s).
  expect_csv_error("0,100\n1,200\n3,300\n", "non-uniform");
  expect_csv_error("0,100\n1,200\n3,300\n", "line 3");
  // Two finite timestamps whose spacing overflows a double.
  expect_csv_error("-1.5e308,100\n1.5e308,200\n", "line 2");
}

TEST(Trace, FromCsvRejectsMalformedCellsWithLineNumber) {
  expect_csv_error("time_s,throughput_kbps\n0,abc\n", "line 2");
  expect_csv_error("0,100\nnan-ish,200\n", "malformed timestamp");
  expect_csv_error("0,100\n1,\n", "malformed throughput");
  expect_csv_error("just-one-field\n", "expected");
  expect_csv_error("0,100\n1,1.5trailing\n", "line 2");
  expect_csv_error("0,-40\n", "negative");
  // std::stod parses "nan"/"inf"; both must be rejected, not ingested.
  expect_csv_error("0,nan\n1,100\n", "line 1");
  expect_csv_error("0,100\n1,inf\n", "malformed throughput");
  expect_csv_error("0,100\ninf,200\n", "malformed timestamp");
}

namespace {

// Whether `message` names a 1-based line: "line " followed by a digit.
bool names_a_line(const std::string& message) {
  for (size_t pos = message.find("line "); pos != std::string::npos;
       pos = message.find("line ", pos + 1)) {
    if (pos + 5 < message.size() && std::isdigit(static_cast<unsigned char>(message[pos + 5]))) {
      return true;
    }
  }
  return false;
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    lines.push_back(text.substr(start, end - start));
    start = end + 1;
  }
  return lines;
}

// One random edit of `csv`: a bit flip, an inserted byte (usually one the
// parser branches on), a deleted byte, two swapped lines, or a cut at a
// random byte (which can leave no data row at all).
void mutate(std::string& csv, util::Rng& rng) {
  static const std::string kInteresting = "0123456789.,-+eE\n\r\t #xn";
  const int kind = rng.uniform_int(0, 4);
  if (kind == 3) {
    std::vector<std::string> lines = split_lines(csv);
    if (lines.size() < 2) return;
    const auto a = static_cast<size_t>(rng.uniform_int(0, static_cast<int>(lines.size()) - 1));
    const auto b = static_cast<size_t>(rng.uniform_int(0, static_cast<int>(lines.size()) - 1));
    std::swap(lines[a], lines[b]);
    csv.clear();
    for (const std::string& line : lines) csv += line + "\n";
    return;
  }
  if (kind == 1) {
    const auto pos = static_cast<size_t>(rng.uniform_int(0, static_cast<int>(csv.size())));
    const char byte =
        rng.chance(0.8)
            ? kInteresting[static_cast<size_t>(
                  rng.uniform_int(0, static_cast<int>(kInteresting.size()) - 1))]
            : static_cast<char>(rng.uniform_int(0, 255));
    csv.insert(csv.begin() + static_cast<long>(pos), byte);
    return;
  }
  if (csv.empty()) return;
  const auto pos = static_cast<size_t>(rng.uniform_int(0, static_cast<int>(csv.size()) - 1));
  if (kind == 0) {
    csv[pos] = static_cast<char>(csv[pos] ^ (1 << rng.uniform_int(0, 7)));
  } else if (kind == 2) {
    csv.erase(pos, 1);
  } else {
    csv.resize(pos);
  }
}

}  // namespace

// Seeded mutation fuzzing of from_csv: every mutant of a valid CSV either
// parses into a trace or is rejected by a std::runtime_error that names its
// 1-based line. No other exception type may escape.
TEST(TraceCsvMutation, EveryMutantParsesOrNamesItsLine) {
  const std::vector<std::string> valid = {
      ThroughputTrace("plain", {1200.0, 0.0, 3300.25, 850.0, 2700.0, 640.5}, 1.0).to_csv(),
      ThroughputTrace("third", {90.125, 4000.0, 0.5, 77.0}, 1.0 / 3.0).to_csv(),
      "# a captured trace\ntime_s,throughput_kbps\n0,100\n\n0.5,200\r\n1,300\n1.5,0\n",
  };
  size_t parsed = 0;
  size_t rejected = 0;
  for (uint64_t seed = 1; seed <= 3000; ++seed) {
    util::Rng rng(seed);
    std::string csv = valid[seed % valid.size()];
    const int edits = rng.uniform_int(1, 4);
    for (int e = 0; e < edits; ++e) mutate(csv, rng);
    try {
      ThroughputTrace trace = ThroughputTrace::from_csv("mutant", csv);
      EXPECT_GT(trace.sample_count(), 0u);
      ++parsed;
    } catch (const std::runtime_error& e) {
      EXPECT_TRUE(names_a_line(e.what())) << "seed " << seed << ": " << e.what();
      ++rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "seed " << seed << ": non-runtime_error escaped: " << e.what();
    }
  }
  // Both outcomes occur, so the seeds exercise the parser and the checks.
  EXPECT_GT(parsed, 100u);
  EXPECT_GT(rejected, 100u);
}

}  // namespace
}  // namespace sensei::net

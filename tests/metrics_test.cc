// Tests for the metrics recorder: samples reflect the world, CSV is sane.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/metrics.h"
#include "workload/builders.h"

namespace dgc {
namespace {

CollectorConfig Config() {
  CollectorConfig config;
  config.suspicion_threshold = 2;
  config.estimated_cycle_length = 3;
  return config;
}

TEST(MetricsTest, SeriesTracksCollectionLifecycle) {
  System system(2, Config());
  const auto cycle =
      workload::BuildCycle(system, {.sites = 2, .objects_per_site = 1});
  MetricsRecorder recorder;
  recorder.Capture(system);  // round 0
  recorder.CaptureRounds(system, 15);

  const auto& samples = recorder.samples();
  ASSERT_EQ(samples.size(), 16u);
  EXPECT_EQ(samples.front().objects_stored, 2u);
  EXPECT_EQ(samples.front().suspected_inrefs, 0u);
  // Suspicion must appear at some point, then collection empties the world.
  bool suspected_seen = false;
  for (const auto& sample : samples) {
    if (sample.suspected_inrefs > 0) suspected_seen = true;
  }
  EXPECT_TRUE(suspected_seen);
  EXPECT_EQ(samples.back().objects_stored, 0u);
  EXPECT_EQ(samples.back().objects_reclaimed, 2u);
  EXPECT_GE(samples.back().bt.traces_completed_garbage, 1u);
  // Monotone cumulative counters.
  for (std::size_t i = 1; i < samples.size(); ++i) {
    EXPECT_GE(samples[i].net.inter_site_sent,
              samples[i - 1].net.inter_site_sent);
    EXPECT_GE(samples[i].objects_reclaimed, samples[i - 1].objects_reclaimed);
  }
}

TEST(MetricsTest, CsvHasHeaderAndOneRowPerSample) {
  System system(2, Config());
  workload::BuildCycle(system, {.sites = 2, .objects_per_site = 1});
  MetricsRecorder recorder;
  recorder.CaptureRounds(system, 5);
  const std::string csv = recorder.ToCsv();
  std::istringstream lines(csv);
  std::string line;
  std::size_t count = 0;
  std::size_t columns = 0;
  while (std::getline(lines, line)) {
    if (count == 0) {
      EXPECT_EQ(line.find("round,time,objects_stored"), 0u);
      columns = static_cast<std::size_t>(
          std::count(line.begin(), line.end(), ',') + 1);
    } else {
      EXPECT_EQ(static_cast<std::size_t>(
                    std::count(line.begin(), line.end(), ',') + 1),
                columns)
          << line;
    }
    ++count;
  }
  EXPECT_EQ(count, 6u);  // header + 5 samples
  recorder.clear();
  EXPECT_TRUE(recorder.samples().empty());
}

std::vector<std::string> SplitCsvLine(const std::string& line) {
  std::vector<std::string> cells;
  std::istringstream in(line);
  std::string cell;
  while (std::getline(in, cell, ',')) cells.push_back(cell);
  return cells;
}

/// Appends "<record>.<counter>" for every counter on the record's list.
template <class R>
void AppendColumns(std::vector<std::string>& columns, const char* record) {
  const R empty;
  ForEachCounter(empty, [&](const std::string& name, auto) {
    columns.push_back(std::string(record) + "." + name);
  });
}

TEST(MetricsTest, CsvHasOneColumnPerListedCounterAfterTheWorldGauges) {
  System system(3, Config());
  workload::BuildCycle(system, {.sites = 3, .objects_per_site = 2});
  MetricsRecorder recorder;
  recorder.CaptureRounds(system, 2);
  std::istringstream lines(recorder.ToCsv());
  std::string header;
  ASSERT_TRUE(std::getline(lines, header));

  std::vector<std::string> expected = {
      "round", "time", "objects_stored", "objects_reclaimed",
      "suspected_inrefs", "suspected_outrefs", "garbage_flagged_inrefs"};
  AppendColumns<System::HeapOccupancy>(expected, "heap");
  AppendColumns<SiteStats>(expected, "site");
  AppendColumns<BackTracerStats>(expected, "bt");
  AppendColumns<NetworkStats>(expected, "net");
  EXPECT_EQ(SplitCsvLine(header), expected);
  // Spot checks that the lists name members as they are spelled.
  for (const char* column :
       {"site.quiescent_skips", "site.table_slot_reuses", "bt.calls_parked",
        "bt.traces_completed_live", "net.retransmits",
        "heap.slot_capacity"}) {
    EXPECT_EQ(std::count(expected.begin(), expected.end(), column), 1)
        << column;
  }
}

TEST(MetricsTest, LastRowSumsEverySiteAndBackTracerCounter) {
  System system(3, Config());
  workload::BuildCycle(system, {.sites = 3, .objects_per_site = 2});
  workload::BuildCycle(system, {.sites = 2, .objects_per_site = 1});
  MetricsRecorder recorder;
  recorder.CaptureRounds(system, 12);
  std::istringstream lines(recorder.ToCsv());
  std::string header;
  std::string row;
  ASSERT_TRUE(std::getline(lines, header));
  for (std::string line; std::getline(lines, line);) row = line;
  const std::vector<std::string> names = SplitCsvLine(header);
  const std::vector<std::string> values = SplitCsvLine(row);
  ASSERT_EQ(names.size(), values.size());
  std::map<std::string, std::uint64_t> last;
  for (std::size_t i = 0; i < names.size(); ++i) {
    last[names[i]] = std::stoull(values[i]);
  }

  std::map<std::string, std::uint64_t> sums;
  for (SiteId s = 0; s < system.site_count(); ++s) {
    ForEachCounter(system.site(s).stats(),
                   [&](const std::string& name, std::uint64_t value) {
                     sums["site." + name] += value;
                   });
    ForEachCounter(system.site(s).back_tracer().stats(),
                   [&](const std::string& name, std::uint64_t value) {
                     sums["bt." + name] += value;
                   });
  }
  ASSERT_FALSE(sums.empty());
  for (const auto& [name, sum] : sums) {
    ASSERT_TRUE(last.contains(name)) << name;
    EXPECT_EQ(last[name], sum) << name;
  }
  // The world did collect, so the comparison covered nonzero counters.
  EXPECT_GT(last["bt.traces_completed_garbage"], 0u);
  EXPECT_GT(last["site.local_traces"], 0u);
}

}  // namespace
}  // namespace dgc

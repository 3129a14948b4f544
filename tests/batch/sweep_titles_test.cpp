// Shared titles in run_sweep: every cell of one (service, content seed,
// content duration) streams one title built once per sweep, the first
// users of a title race to a single build at any --jobs, and a prepare hook
// that changes the content seed streams a title built for its new seed.
// scripts/check.sh --tsan runs this suite under ThreadSanitizer.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "batch/sweep.h"
#include "common/strings.h"
#include "core/report.h"
#include "core/session_factory.h"
#include "trace/cellular_profiles.h"

namespace vodx::batch {
namespace {

/// Everything a cell reports that depends on the bytes its origin served.
std::string fingerprint(const core::SessionResult& result) {
  const core::QoeReport& truth = result.ground_truth;
  return core::qoe_csv_row("cell", result) +
         format("%.9g,%.9g,%d,%lld,%zu,%zu,%.9g\n", truth.startup_delay,
                truth.total_stall, truth.stall_count,
                static_cast<long long>(truth.total_bytes),
                result.events.displayed.size(), result.buffer.size(),
                result.final_position);
}

SweepConfig titles_grid() {
  SweepConfig config;
  config.services = {services::service("H1"), services::service("D1")};
  config.profiles = {2, 7, 9, 14};
  config.seeds = {0, 3};
  config.session_duration = 60;
  config.content_duration = 60;
  return config;
}

TEST(SweepTitles, CellsOfOneServiceAndSeedShareOneTitle) {
  SweepConfig config = titles_grid();
  config.jobs = 4;
  const SweepResult shared = run_sweep(config);
  ASSERT_EQ(shared.failed, 0);
  ASSERT_EQ(shared.cells.size(), 16u);
  // 2 services × 2 seeds, not 16 cells: the four profiles of each
  // (service, seed) stream the same title.
  EXPECT_EQ(shared.titles, 4);

  // A shared title serves exactly the bytes a private one would: every cell
  // matches a run_session that builds its own.
  core::SessionFactory factory;
  factory.session_duration = config.session_duration;
  factory.content_duration = config.content_duration;
  for (const CellResult& cell : shared.cells) {
    SCOPED_TRACE(cell.coordinates());
    const core::SessionConfig own = factory.config(
        config.services[static_cast<std::size_t>(cell.cell.service_index)],
        cell.profile_id, trace_seed_for(cell.seed),
        content_seed_for(cell.seed));
    EXPECT_EQ(fingerprint(cell.result), fingerprint(core::run_session(own)));
  }
}

TEST(SweepTitles, ConcurrentFirstUsersBuildEachTitleOnce) {
  // Eight workers start at once on cells that all want one of two titles:
  // each title is built by one of them while the others wait, and the
  // output matches jobs 1 byte for byte.
  SweepConfig config = titles_grid();
  config.services = {services::service("S1")};
  config.profiles = all_profile_ids();
  config.jobs = 1;
  const SweepResult serial = run_sweep(config);
  config.jobs = 8;
  const SweepResult parallel = run_sweep(config);
  ASSERT_EQ(parallel.failed, 0);
  EXPECT_EQ(serial.titles, 2);
  EXPECT_EQ(parallel.titles, 2);
  EXPECT_EQ(sweep_csv(parallel), sweep_csv(serial));
  EXPECT_EQ(sweep_jsonl(parallel), sweep_jsonl(serial));
}

TEST(SweepTitles, PrepareHookThatChangesTheContentSeedGetsItsOwnTitle) {
  // Profile index 1 is re-pointed at sweep seed 5's trace and content; the
  // profile-index-0 cell keeps seed 0 and builds seed 0's title first
  // (jobs 1). The hooked cell must stream seed 5's title, so its row equals
  // the seed-5 cell of a sweep without the hook.
  SweepConfig config = titles_grid();
  config.services = {services::service("H1")};
  config.profiles = {7, 9};
  config.seeds = {0};
  const SweepResult plain = run_sweep(config);
  config.prepare = [](const Cell& cell, core::SessionConfig& session) {
    if (cell.profile_index != 1) return;
    session.trace = trace::cellular_profile(9, trace_seed_for(5));
    session.content_seed = content_seed_for(5);
  };
  const SweepResult hooked = run_sweep(config);
  ASSERT_EQ(hooked.failed, 0);
  EXPECT_EQ(hooked.titles, 2);

  SweepConfig reference = titles_grid();
  reference.services = {services::service("H1")};
  reference.profiles = {9};
  reference.seeds = {5};
  const SweepResult seed5 = run_sweep(reference);
  ASSERT_EQ(seed5.failed, 0);

  EXPECT_EQ(fingerprint(hooked.cells[1].result),
            fingerprint(seed5.cells[0].result));
  // The untouched cell still streams seed 0's title.
  EXPECT_EQ(fingerprint(hooked.cells[0].result),
            fingerprint(plain.cells[0].result));
}

}  // namespace
}  // namespace vodx::batch

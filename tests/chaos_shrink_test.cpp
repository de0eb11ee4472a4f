// Shrinker and repro-file tests (chaos/shrink.hpp): greedy minimization must
// preserve the failure, the "wmcast-repro v1" format must round-trip exactly
// (repro files are the harness's only durable artifact), and the shrunk
// repros committed under tests/repros/ must stay fixed — each one encodes a
// bug this repo actually had, so a regression makes run_repro fail again.
#include <gtest/gtest.h>

#include <filesystem>
#include <stdexcept>
#include <string>
#include <vector>

#include "wmcast/chaos/campaign.hpp"
#include "wmcast/chaos/oracles.hpp"
#include "wmcast/chaos/shrink.hpp"
#include "wmcast/ctrl/events.hpp"
#include "wmcast/ctrl/trace.hpp"
#include "wmcast/util/rng.hpp"
#include "wmcast/wlan/scenario_generator.hpp"
#include "wmcast/wlan/serialization.hpp"

namespace wmcast::chaos {
namespace {

// A synthetic 5-epoch trace: the "failure" event leave(3) sits in epoch 2
// surrounded by padding the shrinker should strip.
ctrl::EventTrace synthetic_trace() {
  ctrl::EventTrace t;
  t.epochs.resize(5);
  for (size_t ep = 0; ep < t.epochs.size(); ++ep) {
    for (int k = 0; k < 4; ++k) {
      t.epochs[ep].push_back(ctrl::Event::move(static_cast<int>(ep) * 4 + k,
                                               {10.0 * k, 5.0 * static_cast<double>(ep)}));
    }
  }
  t.epochs[2].push_back(ctrl::Event::leave(3));
  return t;
}

bool contains_leave3(const ctrl::EventTrace& t) {
  for (const auto& epoch : t.epochs) {
    for (const auto& e : epoch) {
      if (e.type == ctrl::EventType::kUserLeave && e.user == 3) return true;
    }
  }
  return false;
}

TEST(ShrinkTest, MinimizesToTheSingleFailingEvent) {
  const auto trace = synthetic_trace();
  const auto res = shrink_trace(trace, contains_leave3);

  EXPECT_EQ(res.events_before, trace.n_events());
  EXPECT_EQ(res.events_after, 1u);
  EXPECT_EQ(res.trace.n_events(), 1u);
  EXPECT_TRUE(contains_leave3(res.trace));
  // Trailing epochs are truncated; earlier epochs are emptied but kept so the
  // failing event's epoch index stays meaningful.
  EXPECT_EQ(res.epochs_before, 5);
  EXPECT_EQ(res.epochs_after, 3);
  EXPECT_TRUE(res.trace.epochs[0].empty());
  EXPECT_TRUE(res.trace.epochs[1].empty());
  EXPECT_GT(res.predicate_runs, 0);
}

TEST(ShrinkTest, ThrowsWhenTheInputAlreadyPasses) {
  ctrl::EventTrace passing;
  passing.epochs.resize(2);
  passing.epochs[0].push_back(ctrl::Event::leave(7));
  EXPECT_THROW(shrink_trace(passing, contains_leave3), std::invalid_argument);
}

TEST(ShrinkTest, IsDeterministic) {
  const auto trace = synthetic_trace();
  const auto a = shrink_trace(trace, contains_leave3);
  const auto b = shrink_trace(trace, contains_leave3);
  EXPECT_EQ(ctrl::trace_to_text(a.trace), ctrl::trace_to_text(b.trace));
  EXPECT_EQ(a.predicate_runs, b.predicate_runs);
}

Repro sample_repro() {
  Repro r;
  r.check = "replay.thread_determinism";
  r.detail = "epoch 5: committed association differs between threads=1 and threads=4";
  r.seed = 16946530294876730622ull;  // > INT64_MAX: exercises the u64 parse path
  r.profile = "mixed";
  r.solver = "mla-c";
  r.threads = 4;
  wlan::GeneratorParams gp;
  gp.n_aps = 4;
  gp.n_users = 8;
  gp.n_sessions = 2;
  gp.area_side_m = 200.0;
  util::Rng rng(2);
  r.scenario = wlan::generate_scenario(gp, rng);
  r.trace = synthetic_trace();
  return r;
}

TEST(ReproFormatTest, RoundTripsExactly) {
  const Repro r = sample_repro();
  const std::string text = repro_to_text(r);
  const Repro back = repro_from_text(text);

  EXPECT_EQ(back.check, r.check);
  EXPECT_EQ(back.detail, r.detail);
  EXPECT_EQ(back.seed, r.seed);
  EXPECT_EQ(back.profile, r.profile);
  EXPECT_EQ(back.solver, r.solver);
  EXPECT_EQ(back.threads, r.threads);
  EXPECT_EQ(wlan::to_text(back.scenario), wlan::to_text(r.scenario));
  EXPECT_EQ(ctrl::trace_to_text(back.trace), ctrl::trace_to_text(r.trace));
  // Fixpoint: serialize(parse(text)) == text.
  EXPECT_EQ(repro_to_text(back), text);
}

// Shrink -> serialize -> parse -> serialize must be a fixpoint: the whole
// point of shrinking is committing the minimized repro, so the shrunk trace
// (with its emptied-but-kept leading epochs) must survive the v2 scenario +
// trace formats byte-for-byte.
TEST(ReproFormatTest, ShrunkReproRoundTripsExactly) {
  Repro r = sample_repro();
  const auto res = shrink_trace(r.trace, contains_leave3);
  r.trace = res.trace;
  r.detail = "shrunk to " + std::to_string(res.events_after) + " events";

  const std::string text = repro_to_text(r);
  const Repro back = repro_from_text(text);
  EXPECT_EQ(repro_to_text(back), text);
  EXPECT_EQ(ctrl::trace_to_text(back.trace), ctrl::trace_to_text(res.trace));
  EXPECT_TRUE(contains_leave3(back.trace));
}

TEST(ReproFormatTest, MalformedInputThrows) {
  const std::string good = repro_to_text(sample_repro());

  EXPECT_THROW(repro_from_text(""), std::invalid_argument);
  EXPECT_THROW(repro_from_text("not-a-repro v1\n"), std::invalid_argument);
  // Truncated: drop the trailing "end" and everything after the header.
  EXPECT_THROW(repro_from_text(good.substr(0, good.size() / 3)),
               std::invalid_argument);
  EXPECT_THROW(repro_from_text(good.substr(0, good.rfind("end"))),
               std::invalid_argument);

  // Corrupted metadata fields.
  auto replace_line = [&](const std::string& prefix, const std::string& repl) {
    const auto at = good.find(prefix);
    EXPECT_NE(at, std::string::npos);
    const auto eol = good.find('\n', at);
    return good.substr(0, at) + repl + good.substr(eol);
  };
  EXPECT_THROW(repro_from_text(replace_line("seed ", "seed -1")),
               std::invalid_argument);
  EXPECT_THROW(repro_from_text(replace_line("seed ", "seed 12x")),
               std::invalid_argument);
  EXPECT_THROW(repro_from_text(replace_line("threads ", "threads 0")),
               std::invalid_argument);
  EXPECT_THROW(repro_from_text(replace_line("scenario_lines ", "scenario_lines -4")),
               std::invalid_argument);
}

TEST(ReproFormatTest, SaveAndLoadRoundTripThroughDisk) {
  const Repro r = sample_repro();
  const std::string path =
      (std::filesystem::temp_directory_path() / "wmcast_repro_roundtrip.repro").string();
  ASSERT_TRUE(save_repro(r, path));
  const Repro back = load_repro(path);
  EXPECT_EQ(repro_to_text(back), repro_to_text(r));
  std::filesystem::remove(path);
  EXPECT_THROW(load_repro(path), std::invalid_argument);
}

// Every committed repro encodes a bug the differential replayer once caught
// (e.g. repro_thread_determinism.repro: the better_pick non-SWO comparator
// that made the committed association depend on thread count). run_repro
// replays each through the full oracle set; a failure here means the original
// bug — or a new one on the same path — is back.
TEST(CommittedReprosTest, AllReprosStayFixed) {
  const std::filesystem::path dir =
      std::filesystem::path(WMCAST_TEST_DATA_DIR) / "repros";
  ASSERT_TRUE(std::filesystem::is_directory(dir)) << dir;

  int n_repros = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".repro") continue;
    ++n_repros;
    SCOPED_TRACE(entry.path().filename().string());
    const Repro r = load_repro(entry.path().string());
    const auto res = run_repro(r);
    EXPECT_FALSE(res.diverged) << "diverged at epoch " << res.divergence_epoch;
    EXPECT_EQ(failures_to_text(res.results), "");
    EXPECT_EQ(res.epochs_run, r.trace.n_epochs());
  }
  EXPECT_GE(n_repros, 3) << "committed repro corpus went missing";
}

// The oracle table routes a repro to one family. For every committed repro
// that family must be one that emits the repro's check name, or run_repro
// and the shrinker would replay an oracle the failure never came from.
TEST(CommittedReprosTest, TablePicksAFamilyThatEmitsTheReproCheck) {
  const std::filesystem::path dir =
      std::filesystem::path(WMCAST_TEST_DATA_DIR) / "repros";
  int n_repros = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".repro") continue;
    ++n_repros;
    SCOPED_TRACE(entry.path().filename().string());
    const Repro r = load_repro(entry.path().string());
    const OracleFamily& family = family_of(r.check);
    const auto cfg = oracle_controller_config(r.solver, r.seed);
    const auto res = family.run({r.scenario, r.trace, cfg, r.threads});
    bool emitted = false;
    for (const auto& v : res.results) emitted |= v.check == r.check;
    EXPECT_TRUE(emitted) << "family " << family.name << " never emits " << r.check;
  }
  EXPECT_EQ(n_repros, 7);
}

}  // namespace
}  // namespace wmcast::chaos

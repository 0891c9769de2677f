// SessionConfig::resolve() — the single derivation path from the
// declarative config to every nested core option struct.  Compile-time
// field-count asserts live in src/api/config.cpp; these tests pin the
// runtime behaviour: knobs land where they should, and invalid values are
// rejected naming the offending field.

#include "api/config.hpp"

#include <gtest/gtest.h>

#include <string>

#include "api/errors.hpp"
#include "support/check.hpp"

namespace pigp {
namespace {

SessionConfig valid_config() {
  SessionConfig config;
  config.num_parts = 8;
  return config;
}

TEST(SessionConfigResolve, PropagatesBalanceRefineAndMultilevelKnobs) {
  SessionConfig config = valid_config();
  config.alpha_max = 16.0;
  config.max_balance_stages = 5;
  config.balance_tolerance = 0.25;
  config.max_refine_rounds = 3;
  config.multilevel_coarsest_size = 123;
  config.multilevel_max_levels = 4;
  const ResolvedConfig resolved = config.resolve();

  EXPECT_DOUBLE_EQ(resolved.igp.balance.alpha_max, 16.0);
  EXPECT_EQ(resolved.igp.balance.max_stages, 5);
  EXPECT_DOUBLE_EQ(resolved.igp.balance.tolerance, 0.25);
  EXPECT_EQ(resolved.igp.refinement.max_rounds, 3);
  EXPECT_EQ(resolved.multilevel.coarsest_size, 123);
  EXPECT_EQ(resolved.multilevel.max_levels, 4);
  // The multilevel per-level passes inherit the same knobs.
  EXPECT_DOUBLE_EQ(resolved.multilevel.igp.balance.alpha_max, 16.0);
  EXPECT_EQ(resolved.multilevel.igp.refinement.max_rounds, 3);
}

TEST(SessionConfigResolve, KeepsAValidatedCopyOfTheSessionFields) {
  SessionConfig config = valid_config();
  config.backend = "multilevel";
  config.batch_policy = BatchPolicy::vertex_count;
  config.batch_vertex_limit = 42;
  config.spmd_ranks = 6;
  const ResolvedConfig resolved = config.resolve();

  EXPECT_EQ(resolved.session.backend, "multilevel");
  EXPECT_EQ(resolved.session.batch_policy, BatchPolicy::vertex_count);
  EXPECT_EQ(resolved.session.batch_vertex_limit, 42);
  EXPECT_EQ(resolved.session.spmd_ranks, 6);
}

TEST(SessionConfigResolve, RejectsEachInvalidFieldNamingIt) {
  // Rejections are typed ConfigErrors (which still derive from CheckError,
  // so pre-taxonomy catch sites keep working) naming the offending field.
  const auto expect_rejection = [](SessionConfig config,
                                   const std::string& field) {
    try {
      (void)config.resolve();
      FAIL() << "expected ConfigError for " << field;
    } catch (const ConfigError& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos)
          << "error should name " << field << ": " << e.what();
    }
  };

  expect_rejection(SessionConfig{}, "num_parts");

  SessionConfig bad = valid_config();
  bad.num_threads = 0;
  expect_rejection(bad, "num_threads");

  // A rank rebalances serially; the spmd backend's ranks run in parallel.
  bad = valid_config();
  bad.num_threads = 2;
  expect_rejection(bad, "num_threads");

  bad = valid_config();
  bad.alpha_max = 0.5;
  expect_rejection(bad, "alpha_max");

  bad = valid_config();
  bad.max_balance_stages = 0;
  expect_rejection(bad, "max_balance_stages");

  bad = valid_config();
  bad.balance_tolerance = 0.0;
  expect_rejection(bad, "balance_tolerance");

  bad = valid_config();
  bad.max_refine_rounds = -1;
  expect_rejection(bad, "max_refine_rounds");

  bad = valid_config();
  bad.spmd_ranks = 0;
  expect_rejection(bad, "spmd_ranks");

  bad = valid_config();
  bad.scratch_method = "random";
  expect_rejection(bad, "scratch_method");

  bad = valid_config();
  bad.batch_imbalance_limit = 0.9;
  expect_rejection(bad, "batch_imbalance_limit");

  bad = valid_config();
  bad.batch_vertex_limit = -5;
  expect_rejection(bad, "batch_vertex_limit");

  bad = valid_config();
  bad.backend = "";
  expect_rejection(bad, "backend");

  bad = valid_config();
  bad.async_queue_capacity = 0;
  expect_rejection(bad, "async_queue_capacity");

  bad = valid_config();
  bad.spmd_transport = "carrier-pigeon";
  expect_rejection(bad, "spmd_transport");

  bad = valid_config();
  bad.spmd_wire_filters = "nonsense";
  expect_rejection(bad, "spmd_wire_filters");

  bad = valid_config();
  bad.spmd_timeout_ms = 0;
  expect_rejection(bad, "spmd_timeout_ms");
}

TEST(SessionConfigResolve, KeepsTheTransportFields) {
  SessionConfig config = valid_config();
  config.spmd_transport = "tcp";
  config.spmd_wire_filters = "delta";
  config.spmd_timeout_ms = 5000;
  const ResolvedConfig resolved = config.resolve();
  EXPECT_EQ(resolved.session.spmd_transport, "tcp");
  EXPECT_EQ(resolved.session.spmd_wire_filters, "delta");
  EXPECT_EQ(resolved.session.spmd_timeout_ms, 5000);
}

TEST(SessionConfigResolve, KeepsTheAsyncQueueCapacity) {
  SessionConfig config = valid_config();
  config.async_queue_capacity = 17;
  EXPECT_EQ(config.resolve().session.async_queue_capacity, 17);
}

}  // namespace
}  // namespace pigp

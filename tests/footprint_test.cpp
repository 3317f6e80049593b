// Footprint regression tests. Building a streaming gradient-full World may
// cost at most three heap allocations per node. One is the node model,
// which holds its node and clock inline; the rest is amortized growth of
// shared arrays (arena lanes, CSR adjacency, recorder tables). A per-node
// container -- a pending-message deque, a copied predecessor list, a clock
// segment vector, per-node adjacency vectors -- adds at least one
// allocation per node and fails the bound. Running that World allocates
// only as the event queue's slot table and calendar grow: a per-bucket or
// per-event container fails the run bound.
//
// This is its own binary because the replacement operator new below counts
// every allocation in the process; linked into gtrix_tests it would count
// theirs too.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>

#include "runner/experiment.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};

void* counted_alloc(std::size_t size, std::size_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  const std::size_t bytes = size == 0 ? 1 : size;
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(bytes)
                : std::aligned_alloc(align, (bytes + align - 1) / align * align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size, 0); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace gtrix {
namespace {

/// The 64x64 streaming gradient-full cell both cases build.
ExperimentConfig streaming_grid() {
  ExperimentConfig config;
  config.columns = 64;
  config.layers = 64;
  config.pulses = 16;
  config.algorithm_spec = ComponentSpec::of("gradient-full");
  config.recording_spec = ComponentSpec::of("streaming");
  // The component registries build their tables on first use; do that
  // outside the counted window.
  (void)resolve_components(config);
  return config;
}

TEST(Footprint, StreamingGradientWorldAllocatesAtMostThreePerNode) {
  const ExperimentConfig config = streaming_grid();
  const std::uint64_t before = g_allocations.load();
  const auto world = std::make_unique<World>(config);
  const std::uint64_t allocations = g_allocations.load() - before;

  const std::uint32_t nodes = world->grid().node_count();
  ASSERT_EQ(nodes, 66u * 64u);  // the 64-column line has two end replicas
  const double per_node = static_cast<double>(allocations) / nodes;
  EXPECT_LE(per_node, 3.0) << allocations << " heap allocations while building " << nodes
                           << " nodes";
}

TEST(Footprint, StreamingRunAllocatesOnlyAsTheQueueGrows) {
  const auto world = std::make_unique<World>(streaming_grid());
  const std::uint64_t before = g_allocations.load();
  world->run_to_completion();
  const std::uint64_t allocations = g_allocations.load() - before;
  // Growth of the slot table, the bucket array and the rebuild scratch: a
  // dozen or so (12 at this shape), where one allocation per bucket or per
  // event would be thousands.
  EXPECT_LE(allocations, 64u) << allocations << " heap allocations while running "
                              << world->grid().node_count() << " nodes";
}

}  // namespace
}  // namespace gtrix

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
// The gradient node's own bytes are bounded too: its object size, and the
// bytes its arena lanes hold per node, measured as live heap bytes.
//
// This is its own binary because the replacement operator new below counts
// every allocation in the process; linked into gtrix_tests it would count
// theirs too.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>

#include "core/gradient_node.hpp"
#include "core/node_state.hpp"
#include "runner/experiment.hpp"

namespace {

std::atomic<std::uint64_t> g_allocations{0};
std::atomic<std::int64_t> g_live_bytes{0};

/// Each block carries its size in a header just below the pointer handed
/// out: kHeader bytes, or `align` for over-aligned blocks, which start that
/// far into their allocation.
constexpr std::size_t kHeader = alignof(std::max_align_t);

void* counted_alloc(std::size_t size, std::size_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  g_live_bytes.fetch_add(static_cast<std::int64_t>(size), std::memory_order_relaxed);
  const std::size_t bytes = size == 0 ? 1 : size;
  const std::size_t offset = align <= kHeader ? kHeader : align;
  void* base = align <= kHeader
                   ? std::malloc(offset + bytes)
                   : std::aligned_alloc(align, (offset + bytes + align - 1) / align * align);
  if (base == nullptr) throw std::bad_alloc();
  auto* p = static_cast<unsigned char*>(base) + offset;
  std::memcpy(p - sizeof(std::size_t), &size, sizeof(std::size_t));
  return p;
}

void counted_free(void* p, std::size_t offset) noexcept {
  if (p == nullptr) return;
  auto* bytes = static_cast<unsigned char*>(p);
  std::size_t size = 0;
  std::memcpy(&size, bytes - sizeof(std::size_t), sizeof(std::size_t));
  g_live_bytes.fetch_sub(static_cast<std::int64_t>(size), std::memory_order_relaxed);
  std::free(bytes - offset);
}

std::size_t aligned_offset(std::align_val_t align) noexcept {
  return static_cast<std::size_t>(align) <= kHeader ? kHeader : static_cast<std::size_t>(align);
}

}  // namespace

void* operator new(std::size_t size) { return counted_alloc(size, 0); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { counted_free(p, kHeader); }
void operator delete(void* p, std::size_t) noexcept { counted_free(p, kHeader); }
void operator delete(void* p, std::align_val_t align) noexcept {
  counted_free(p, aligned_offset(align));
}
void operator delete(void* p, std::size_t, std::align_val_t align) noexcept {
  counted_free(p, aligned_offset(align));
}

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

/// The node object holds its clock, a pointer to its pending queue, its
/// staged wave, the deadlines of its timers and one queue-entry handle; the
/// config, the counters (one tally per arena) and, under full recording,
/// the staged iteration record live in the arena. The arena lanes hold, per
/// node, the phase (1 B), H_own, H_min, H_max and the last wave (4 x 8 B),
/// the slot base (4 B), and per predecessor slot its flags and wave (10 B);
/// the staged lane adds one record per node only when records are kept.
/// reserve() sizes every lane exactly, so no lane keeps growth slack.
TEST(Footprint, GradientNodeObjectAndArenaLanesStayWithinTheirBytes) {
  EXPECT_LE(sizeof(GradientTrixNode), 200u);
  EXPECT_EQ(sizeof(GradientTally), 64u);
  EXPECT_EQ(alignof(GradientTally), 64u);
  constexpr std::uint32_t kNodes = 1000;
  constexpr std::uint32_t kSlots = 4;
  for (const bool keep_records : {false, true}) {
    const std::int64_t before = g_live_bytes.load();
    {
      GradientSoa soa;
      soa.reserve(kNodes, kNodes * kSlots, keep_records);
      for (std::uint32_t n = 0; n < kNodes; ++n) {
        soa.add_node(kSlots, GradientNodeConfig{}, keep_records);
      }
      const std::int64_t per_node = 1 + 4 * 8 + 4 + kSlots * 10 +
                                    (keep_records ? sizeof(IterationRecord) : 0);
      const std::int64_t bytes = g_live_bytes.load() - before;
      EXPECT_EQ(bytes, static_cast<std::int64_t>(kNodes) * per_node)
          << "keep_records " << keep_records << ": " << static_cast<double>(bytes) / kNodes
          << " B per node";
    }
    EXPECT_EQ(g_live_bytes.load(), before);
  }
}

/// The whole construction, per node: node models, arena lanes, the network
/// CSR, recorder tables, the streaming accumulator's rings and the two
/// shard queues, as live heap bytes once the World is built. 634 B at this
/// shape; the 400 B node with its counters and staged record on board,
/// and its lanes grown by doubling, took 895 B.
TEST(Footprint, TwoShardStreamingWorldStaysWithinItsConstructionBytesPerNode) {
  const ExperimentConfig config = streaming_grid();
  const std::int64_t before = g_live_bytes.load();
  const auto world = std::make_unique<World>(config, EngineOptions{.shards = 2});
  const std::int64_t bytes = g_live_bytes.load() - before;
  const double per_node = static_cast<double>(bytes) / world->grid().node_count();
  EXPECT_LE(per_node, 660.0) << bytes << " live bytes after building "
                             << world->grid().node_count() << " nodes at 2 shards";
}

}  // namespace
}  // namespace gtrix

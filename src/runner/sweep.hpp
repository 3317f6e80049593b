// Parallel index fan-out for independent simulations.
//
// Parameter sweeps run many independent discrete-event simulations (grid
// sizes x seeds x fault plans). Each one owns its World, so a sweep is
// embarrassingly parallel: parallel_for_index fans the indices across a
// pool of std::thread workers pulling from a shared atomic cursor, and each
// body writes only the result slot matching its index.
//
// Determinism: every cell derives all randomness from its own config seed
// and shares no mutable state with its siblings, so per-cell results are
// bit-identical no matter how many workers run the sweep or how the cells
// interleave (test_sweep.cpp asserts 1 thread == N threads).
#pragma once

#include <cstddef>
#include <functional>

namespace gtrix {

/// Invokes fn(i) for every i in [0, n), fanned across `threads` workers
/// (0 = hardware concurrency). fn must confine its writes to caller-owned
/// slot i. The first exception thrown by any worker is rethrown on the
/// calling thread after all workers have joined.
void parallel_for_index(std::size_t n, unsigned threads,
                        const std::function<void(std::size_t)>& fn);

}  // namespace gtrix

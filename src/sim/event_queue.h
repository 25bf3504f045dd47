// The event loop's queue of per-session event times is the library's
// indexed min-heap; the alias keeps the name the benchmark's traced replica
// (benchmark/src/replay.cpp) compiles against.
#pragma once

#include "util/indexed_min_heap.h"

namespace sensei::sim {

using EventQueue = util::IndexedMinHeap;

}  // namespace sensei::sim

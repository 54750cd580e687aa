#pragma once
// Kept only because the frozen perfbench/ includes it (ROADMAP "Benchmark hygiene").
#include "msropm/sat/coloring_encoder.hpp"

#pragma once

// Observation 3.4 / Observation 2.1 / Theorem 4.7 live in one module.
#include "core/iterated.hpp"  // IWYU pragma: export

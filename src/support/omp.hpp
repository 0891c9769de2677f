#pragma once

/// \file omp.hpp
/// OpenMP directives that vanish in builds without OpenMP.
///
/// PIGP_OMP(parallel for schedule(static)) expands to
/// `#pragma omp parallel for schedule(static)` when the compiler runs with
/// OpenMP, and to nothing otherwise — so a build without OpenMP sees no
/// unknown pragma.  Code around a directive must not depend on it: every
/// parallel region here is a loop whose serial run gives the same result.

#ifdef _OPENMP
#include <omp.h>

#define PIGP_OMP_STRINGIFY(...) #__VA_ARGS__
#define PIGP_OMP(...) _Pragma(PIGP_OMP_STRINGIFY(omp __VA_ARGS__))
#else
#define PIGP_OMP(...)
#endif

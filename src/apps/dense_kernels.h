// Dense float kernels shared by the classifier apps (MLR, DNN).
//
// Plain C++ shaped so that GCC vectorizes the chunk loops into SSE2
// mulps/addps at the project's -O2, with no flags, pragmas or
// intrinsics. The kernels are compiled out of line, in dense_kernels.cc:
// inlined, whether the loops vectorize depends on what the compiler can
// prove about the caller's pointers (a caller that computes its buffer
// address by hand gets scalar code, 4x slower). Every kernel is
// deterministic: the same inputs give the same bits, whatever the
// pointers' alignment.
#ifndef SRC_APPS_DENSE_KERNELS_H_
#define SRC_APPS_DENSE_KERNELS_H_

#include <span>

namespace proteus {

// Elements per chunk: one AVX register, two SSE registers of floats.
inline constexpr int kLanes = 8;

// a . b over n elements. Each of the kLanes float partial sums is its own
// dependency chain, so the chunk loop runs at SIMD throughput, not FP-add
// latency. The tail (n % kLanes elements) adds up in double, and the
// lanes fold in index order, so the summation order depends on n alone.
double Dot(const float* a, const float* b, int n);

// g[d] += coeff * x[d] for d < n, bit-identical to the scalar loop; x and
// g must not overlap. Each chunk loads all of x and g before it stores, so
// the vectorizer needs no runtime alias check to keep the stores in order.
void Axpy(float coeff, const float* x, float* g, int n);

// Turns logits into softmax probabilities in place.
void SoftmaxInPlace(std::span<double> logits);

}  // namespace proteus

#endif  // SRC_APPS_DENSE_KERNELS_H_

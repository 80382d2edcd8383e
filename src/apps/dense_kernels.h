// Dense kernels for MLR and LDA's Gibbs sampler.
//
// Plain C++ shaped so that GCC vectorizes the chunk loops into SSE2
// (mulps/addps; mulpd/divpd for LDA's double conditional) at the
// project's -O2, with no flags, pragmas or intrinsics. The kernels are compiled out of line, in dense_kernels.cc:
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

// LDA's collapsed-Gibbs conditional over n topics:
//   prob[k] = (max(0,ndk[k]) + alpha) * (max(0,nwk[k]) + beta)
//             / (max(0,nk[k]) + vbeta),
// element-wise in double, so each prob[k] has the scalar expression's
// bits. Returns prob[0] + ... + prob[n-1] summed serially in index order,
// the total Rng::Categorical would compute, folded into the same pass.
// prob must not overlap the inputs. prob and ndk are both double*, so
// each chunk loads its inputs before it stores: otherwise the vectorizer
// would need a runtime alias check, which -O2's cost model refuses, and
// the loop would stay scalar.
double GibbsConditional(const double* ndk, const float* nwk, const float* nk, double alpha,
                        double beta, double vbeta, double* prob, int n);

// Turns logits into softmax probabilities in place.
void SoftmaxInPlace(std::span<double> logits);

}  // namespace proteus

#endif  // SRC_APPS_DENSE_KERNELS_H_

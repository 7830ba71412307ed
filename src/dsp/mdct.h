// Modified Discrete Cosine Transform with Princen-Bradley TDAC, the heart of
// the Vorbix codec (our from-scratch stand-in for Ogg Vorbis). Conventions:
//
//   forward:  X[k] = sum_{n=0}^{2M-1} x[n] w[n]
//                    cos(pi/M (n + 0.5 + M/2)(k + 0.5)),  k in [0, M)
//   inverse:  y[n] = (2/M) w[n] sum_{k=0}^{M-1} X[k]
//                    cos(pi/M (n + 0.5 + M/2)(k + 0.5)),  n in [0, 2M)
//
// where w is the sine window. Overlap-adding the second half of block t with
// the first half of block t+1 reconstructs the input exactly.
//
// Two implementations are provided: a fast plan-based one (fold to DCT-IV,
// DCT-IV via one half-length complex FFT, all twiddles precomputed, all
// scratch owned by the plan) used by the codec, and a direct O(N^2)
// reference that tests hold the fast path to, within 1e-9.
//
// Ownership / threading: a Dct4Plan or Mdct owns mutable scratch, so
// Forward/Inverse/Execute are non-const and an instance must not be shared
// across threads without external locking. Construct one per encoder or
// decoder (they are cheap: a few KB of tables per size). After
// construction, Forward/Inverse perform no heap allocation.
#ifndef SRC_DSP_MDCT_H_
#define SRC_DSP_MDCT_H_

#include <complex>
#include <cstddef>
#include <vector>

#include "src/dsp/fft.h"

namespace espk {

// Sine window of length 2M: w[n] = sin(pi/(2M) (n + 0.5)). Satisfies the
// Princen-Bradley condition w[n]^2 + w[n+M]^2 = 1.
std::vector<double> SineWindow(size_t two_m);

// DCT-IV of length M (a power of two >= 8) via one M/2-point complex FFT.
// With K = M/2, z[t] = v[2t] + i v[M-1-2t] packs the input; then
//   Z[s] = e^{-i pi (4s+1)/(4M)} FFT_K(z[t] e^{-i pi t/M})[s]
//   X[2s] = Re Z[s],   X[M-1-2s] = -Im Z[s]
// The twiddles multiply to e^{-i pi (4t+1)(4s+1)/(4M)}, whose real part is
// the DCT-IV kernel between v[2t] and X[2s]; reflecting n -> M-1-n or
// k -> M-1-k turns that cosine into a sine or a negated cosine, which the
// imaginary parts and the packed v[M-1-2t] supply. So one FFT yields every
// output, none is discarded, and there is no zero padding. Both twiddle
// tables and the complex work buffer are precomputed / preallocated at
// construction; dsp_test pins Execute against the direct O(N^2) formula
// for every supported size.
class Dct4Plan {
 public:
  explicit Dct4Plan(size_t m);

  size_t size() const { return m_; }

  // out[k] = DCT4(in)[k] for k < size(). `out` may alias `in`. No heap
  // allocation; mutates internal scratch (hence non-const).
  void Execute(const double* in, double* out);

 private:
  size_t m_;
  FftPlan fft_;                              // size M/2
  std::vector<std::complex<double>> pre_;    // e^{-i pi t/M}
  std::vector<std::complex<double>> post_;   // e^{-i pi (4s+1)/(4M)}
  std::vector<std::complex<double>> work_;   // M/2 scratch
};

// Precomputed transform for half-length M (a power of two >= 8). The window
// is applied inside Forward/Inverse.
class Mdct {
 public:
  explicit Mdct(size_t half_length);

  size_t half_length() const { return m_; }
  const std::vector<double>& window() const { return window_; }

  // Zero-allocation forms used by the codec hot path. `input` points at 2M
  // samples, `coeffs` at M; `output` at 2M. Input/output may not alias.
  void Forward(const double* input, double* coeffs);
  void Inverse(const double* coeffs, double* output);

  // Allocating conveniences (tests, cold paths).
  std::vector<double> Forward(const std::vector<double>& input);
  std::vector<double> Inverse(const std::vector<double>& coeffs);

 private:
  size_t m_;
  std::vector<double> window_;  // length 2M
  Dct4Plan dct4_;
  std::vector<double> fold_;    // M scratch (fold / DCT-IV output)
};

// Direct-formula reference implementations (slow; tests only).
std::vector<double> MdctForwardDirect(const std::vector<double>& input,
                                      const std::vector<double>& window);
std::vector<double> MdctInverseDirect(const std::vector<double>& coeffs,
                                      const std::vector<double>& window);

}  // namespace espk

#endif  // SRC_DSP_MDCT_H_

#include "src/dsp/mdct.h"

#include <cassert>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <numbers>

namespace espk {

namespace {
constexpr double kPi = std::numbers::pi;
}  // namespace

std::vector<double> SineWindow(size_t two_m) {
  std::vector<double> w(two_m);
  for (size_t n = 0; n < two_m; ++n) {
    w[n] = std::sin(kPi / static_cast<double>(two_m) *
                    (static_cast<double>(n) + 0.5));
  }
  return w;
}

Dct4Plan::Dct4Plan(size_t m)
    : m_(m), fft_(m / 2), pre_(m / 2), post_(m / 2), work_(m / 2) {
  const size_t k = m / 2;
  const double md = static_cast<double>(m);
  for (size_t t = 0; t < k; ++t) {
    const double td = static_cast<double>(t);
    pre_[t] = {std::cos(-kPi * td / md), std::sin(-kPi * td / md)};
  }
  for (size_t s = 0; s < k; ++s) {
    const double a = -kPi * (4.0 * static_cast<double>(s) + 1.0) / (4.0 * md);
    post_[s] = {std::cos(a), std::sin(a)};
  }
}

void Dct4Plan::Execute(const double* in, double* out) {
  const size_t m = m_;
  const size_t k = m / 2;
  // Pack z[t] = in[2t] + i in[m-1-2t] and pre-twiddle in one pass, in
  // explicit real arithmetic (see the FFT butterfly note: complex multiplies
  // libcall into __muldc3 at -O2). Every read of `in` happens here, before
  // any write to `out`, so out may alias in.
  for (size_t t = 0; t < k; ++t) {
    const double zr = in[2 * t];
    const double zi = in[m - 1 - 2 * t];
    const double cr = pre_[t].real();
    const double ci = pre_[t].imag();
    work_[t] = {zr * cr - zi * ci, zr * ci + zi * cr};
  }
  fft_.Forward(work_.data());
  // Z[s] = post[s] * work[s]: its real part is X[2s], its negated
  // imaginary part X[m-1-2s].
  for (size_t s = 0; s < k; ++s) {
    const double qr = post_[s].real();
    const double qi = post_[s].imag();
    const double wr = work_[s].real();
    const double wi = work_[s].imag();
    out[2 * s] = qr * wr - qi * wi;
    out[m - 1 - 2 * s] = -(qr * wi + qi * wr);
  }
}

Mdct::Mdct(size_t half_length)
    : m_(half_length),
      window_(SineWindow(2 * m_)),
      dct4_(m_),
      fold_(m_) {
  if (!IsPowerOfTwo(m_) || m_ < 8) {
    std::fprintf(stderr, "espk: MDCT half-length %zu must be 2^k >= 8\n", m_);
    std::abort();
  }
}

void Mdct::Forward(const double* input, double* coeffs) {
  const size_t m = m_;
  // Window + TDAC fold of 2M samples to M in one pass (derivation in
  // header); z[n] = input[n] * window_[n] is never materialized.
  for (size_t j = 0; j < m / 2; ++j) {
    fold_[j] = -input[3 * m / 2 - 1 - j] * window_[3 * m / 2 - 1 - j] -
               input[3 * m / 2 + j] * window_[3 * m / 2 + j];
  }
  for (size_t j = m / 2; j < m; ++j) {
    fold_[j] = input[j - m / 2] * window_[j - m / 2] -
               input[3 * m / 2 - 1 - j] * window_[3 * m / 2 - 1 - j];
  }
  dct4_.Execute(fold_.data(), coeffs);
}

void Mdct::Inverse(const double* coeffs, double* output) {
  const size_t m = m_;
  dct4_.Execute(coeffs, fold_.data());
  const double* u = fold_.data();
  // Unfold (transpose of the forward fold), then window + scale.
  for (size_t n = 0; n < m / 2; ++n) {
    output[n] = u[n + m / 2];
  }
  for (size_t n = m / 2; n < 3 * m / 2; ++n) {
    output[n] = -u[3 * m / 2 - 1 - n];
  }
  for (size_t n = 3 * m / 2; n < 2 * m; ++n) {
    output[n] = -u[n - 3 * m / 2];
  }
  const double scale = 2.0 / static_cast<double>(m);
  for (size_t n = 0; n < 2 * m; ++n) {
    output[n] *= scale * window_[n];
  }
}

std::vector<double> Mdct::Forward(const std::vector<double>& input) {
  assert(input.size() == 2 * m_);
  std::vector<double> coeffs(m_);
  Forward(input.data(), coeffs.data());
  return coeffs;
}

std::vector<double> Mdct::Inverse(const std::vector<double>& coeffs) {
  assert(coeffs.size() == m_);
  std::vector<double> output(2 * m_);
  Inverse(coeffs.data(), output.data());
  return output;
}

std::vector<double> MdctForwardDirect(const std::vector<double>& input,
                                      const std::vector<double>& window) {
  const size_t two_m = input.size();
  const size_t m = two_m / 2;
  assert(window.size() == two_m);
  std::vector<double> out(m, 0.0);
  for (size_t k = 0; k < m; ++k) {
    double acc = 0.0;
    for (size_t n = 0; n < two_m; ++n) {
      acc += input[n] * window[n] *
             std::cos(kPi / static_cast<double>(m) *
                      (static_cast<double>(n) + 0.5 +
                       static_cast<double>(m) / 2.0) *
                      (static_cast<double>(k) + 0.5));
    }
    out[k] = acc;
  }
  return out;
}

std::vector<double> MdctInverseDirect(const std::vector<double>& coeffs,
                                      const std::vector<double>& window) {
  const size_t m = coeffs.size();
  const size_t two_m = 2 * m;
  assert(window.size() == two_m);
  std::vector<double> out(two_m, 0.0);
  for (size_t n = 0; n < two_m; ++n) {
    double acc = 0.0;
    for (size_t k = 0; k < m; ++k) {
      acc += coeffs[k] * std::cos(kPi / static_cast<double>(m) *
                                  (static_cast<double>(n) + 0.5 +
                                   static_cast<double>(m) / 2.0) *
                                  (static_cast<double>(k) + 0.5));
    }
    out[n] = acc * 2.0 / static_cast<double>(m) * window[n];
  }
  return out;
}

}  // namespace espk

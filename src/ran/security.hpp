// 5G security model (TS 33.501 subset): algorithm identifiers, UE security
// capabilities, a simplified 5G-AKA challenge/response, and the key
// derivations needed to make the Null-Cipher downgrade attack [37]
// observable in telemetry (MobiFlow's cipher_alg / integrity_alg fields).
//
// The cryptography is deliberately *simulated*: a keyed FNV-based PRF stands
// in for MILENAGE/HMAC-SHA256. What matters for the reproduction is the
// protocol structure (who derives what from what, and that a MAC verifies
// iff peer keys match), not cryptographic strength.
#pragma once

#include <array>
#include <cstdint>
#include <iterator>
#include <string>
#include <vector>

#include "common/bytes.hpp"

namespace xsec::ran {

/// 5G NR encryption algorithms. NEA0 is the null cipher — selecting it is
/// standard-compliant but leaves all traffic in plaintext, which is exactly
/// what the bidding-down attack in the paper forces.
enum class CipherAlg : std::uint8_t { kNea0 = 0, kNea1 = 1, kNea2 = 2, kNea3 = 3 };

/// 5G NR integrity algorithms; NIA0 is the null integrity algorithm.
enum class IntegrityAlg : std::uint8_t { kNia0 = 0, kNia1 = 1, kNia2 = 2, kNia3 = 3 };

std::string to_string(CipherAlg alg);
std::string to_string(IntegrityAlg alg);

/// Bitmask of algorithms a UE advertises in its RegistrationRequest.
struct SecurityCapabilities {
  std::uint8_t nea_mask = 0b0111;  // NEA0..NEA2 supported by default
  std::uint8_t nia_mask = 0b0110;  // NIA1..NIA2 (NIA0 only for emergency)

  auto operator<=>(const SecurityCapabilities&) const = default;

  bool supports(CipherAlg alg) const {
    return nea_mask & (1u << static_cast<std::uint8_t>(alg));
  }
  bool supports(IntegrityAlg alg) const {
    return nia_mask & (1u << static_cast<std::uint8_t>(alg));
  }
  std::string str() const;
};

/// 256-bit key material (K, K_AUSF, K_AMF, K_gNB, ...).
using Key = std::array<std::uint8_t, 32>;

/// Keyed PRF standing in for the 3GPP KDF (33.220 Annex B). Deterministic in
/// (key, label, context), with strong diffusion via iterated FNV/xorshift.
Key kdf(const Key& key, std::string_view label, std::uint64_t context = 0);

/// Derives the long-term subscriber key from a SUPI string (the testbed
/// provisioning step: both SIM and the AMF's subscriber DB hold this).
Key subscriber_key(std::string_view supi);

/// 5G-AKA authentication vector (simplified: RAND, AUTN, expected RES*).
struct AuthVector {
  std::uint64_t rand = 0;
  std::uint64_t autn = 0;   // network authentication token (MAC over rand)
  std::uint64_t xres = 0;   // expected challenge response
};

/// Home-network side: generates a fresh vector for a subscriber.
AuthVector generate_auth_vector(const Key& k, std::uint64_t rand);
/// UE side: verifies AUTN (detects rogue networks) and computes RES*.
bool verify_autn(const Key& k, std::uint64_t rand, std::uint64_t autn);
std::uint64_t compute_res(const Key& k, std::uint64_t rand);

/// NAS / RRC message protection. Ciphering is a keystream XOR; integrity is
/// a 32-bit MAC over (key, count, payload). NEA0/NIA0 are pass-through /
/// constant-MAC, mirroring the null algorithms.
Bytes cipher(CipherAlg alg, const Key& key, std::uint32_t count,
             const Bytes& payload);
Bytes decipher(CipherAlg alg, const Key& key, std::uint32_t count,
               const Bytes& payload);
std::uint32_t compute_mac(IntegrityAlg alg, const Key& key,
                          std::uint32_t count, const Bytes& payload);
bool verify_mac(IntegrityAlg alg, const Key& key, std::uint32_t count,
                const Bytes& payload, std::uint32_t mac);

/// Network-side algorithm selection: highest mutually supported algorithm
/// by the operator's priority list. A compromised/misconfigured network that
/// prefers null algorithms models the downgrade attack.
struct AlgorithmPolicy {
  // The defaults are copied from static arrays: GCC 12 reports the backing
  // array of a braced std::vector initializer here as maybe-uninitialized
  // (-Wmaybe-uninitialized) wherever the constructor is inlined.
  static constexpr CipherAlg kDefaultCiphers[] = {
      CipherAlg::kNea2, CipherAlg::kNea1, CipherAlg::kNea0};
  static constexpr IntegrityAlg kDefaultIntegrity[] = {IntegrityAlg::kNia2,
                                                       IntegrityAlg::kNia1};

  std::vector<CipherAlg> cipher_priority{std::begin(kDefaultCiphers),
                                         std::end(kDefaultCiphers)};
  std::vector<IntegrityAlg> integrity_priority{std::begin(kDefaultIntegrity),
                                               std::end(kDefaultIntegrity)};

  CipherAlg select_cipher(const SecurityCapabilities& caps) const;
  IntegrityAlg select_integrity(const SecurityCapabilities& caps) const;
};

}  // namespace xsec::ran

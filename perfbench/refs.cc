/**
 * @file
 * Output references computed by the benchmark itself, from each guest
 * program's definition rather than from any interpreter: the DES-style
 * Feistel cipher, the matmul kernel and the spin checksum loop. The
 * guest programs keep every value within 31 bits (or reduce modulo a
 * small prime), so exact 64-bit host arithmetic reproduces what every
 * guest language prints.
 */
#include <cstdint>
#include <string>

#include "bench.hh"

namespace perfbench {

std::string
desReference(int blocks)
{
    const uint64_t mask = 0x7fffffff;
    uint64_t sbox[256];
    uint64_t rk[16];
    for (uint64_t i = 0; i < 256; ++i)
        sbox[i] = ((i * 37) ^ (i >> 3) ^ ((i * i) % 251)) & 255;
    rk[0] = 0x3A94B7C5;
    for (uint64_t i = 1; i < 16; ++i)
        rk[i] = (((rk[i - 1] << 1) & mask) ^ ((rk[i - 1] >> 27) & 31) ^
                 (i * 17)) &
                mask;
    auto feistel = [&](uint64_t r, uint64_t k) {
        uint64_t t = (r ^ k) & mask;
        return (sbox[t & 255] + (sbox[(t >> 8) & 255] << 8) +
                (sbox[(t >> 16) & 255] << 16) +
                (sbox[(t >> 23) & 255] << 23)) &
               mask;
    };

    uint64_t checksum = 0;
    bool ok = true;
    for (uint64_t i = 0; i < (uint64_t)blocks; ++i) {
        const uint64_t pl = (i * 12345 + 6789) & mask;
        const uint64_t pr = (i * 54321 + 999) & mask;
        uint64_t l = pl, r = pr;
        for (int round = 0; round < 16; ++round) {
            uint64_t nl = r;
            r = (l ^ feistel(r, rk[round])) & mask;
            l = nl;
        }
        checksum = (checksum * 31 + l) & mask;
        checksum = (checksum * 31 + r) & mask;
        for (int round = 15; round >= 0; --round) {
            uint64_t nr = l;
            l = (r ^ feistel(l, rk[round])) & mask;
            r = nr;
        }
        ok = ok && l == pl && r == pr;
    }
    return "des checksum=" + std::to_string(checksum) +
           " roundtrip=" + (ok ? "1" : "0") + "\n";
}

namespace {

/** stdout of the matmul programs (n = 8, two passes). */
std::string
matmulReference()
{
    const int n = 8, reps = 2;
    int64_t a[64], b[64], sum = 0;
    for (int r = 0; r < reps; ++r) {
        for (int i = 0; i < n; ++i)
            for (int j = 0; j < n; ++j) {
                a[i * n + j] = (i * 7 + j * 3 + r) % 13;
                b[i * n + j] = (i * 5 + j * 11 + r) % 17;
            }
        for (int i = 0; i < n; ++i)
            for (int j = 0; j < n; ++j) {
                int64_t s = 0;
                for (int k = 0; k < n; ++k)
                    s += a[i * n + k] * b[k * n + j];
                sum = (sum + s) % 100003;
            }
    }
    return "mat checksum=" + std::to_string(sum) + " n=8 reps=2\n";
}

/** stdout of the spin programs (n = 1500). */
std::string
spinReference()
{
    const int n = 1500;
    int64_t c = 0;
    for (int i = 0; i < n; ++i)
        c = (c * 33 + (i & 7)) % 65521;
    return "spin checksum=" + std::to_string(c) + " n=1500\n";
}

} // namespace

std::string
independentReference(const std::string &program, const std::string &lang)
{
    if (program == "des") {
        // Block counts of des.mc, des.pl and des.tcl: the scripted
        // versions run fewer blocks of the same cipher.
        if (lang == "Perl")
            return desReference(10);
        if (lang == "Tcl")
            return desReference(6);
        return desReference(24);
    }
    if (program == "matmul")
        return matmulReference();
    if (program == "spin")
        return spinReference();
    return "";
}

} // namespace perfbench

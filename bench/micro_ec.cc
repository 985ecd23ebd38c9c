// google-benchmark microbenchmarks of the erasure-coding kernels (the
// ISA-L stand-ins of §8): XOR parity, GF(2^8) multiply-accumulate, RAID-6
// P+Q generation, and recovery paths; plus the buffer and reduce-session
// plumbing around them.

#include <benchmark/benchmark.h>

#include <vector>

#include "core/reduce_engine.h"
#include "ec/buffer.h"
#include "ec/gf256.h"
#include "ec/raid5_codec.h"
#include "ec/raid6_codec.h"
#include "ec/xor_kernel.h"

using namespace draid::ec;

namespace {

std::vector<Buffer>
makeData(std::size_t k, std::size_t len)
{
    std::vector<Buffer> data;
    for (std::size_t i = 0; i < k; ++i) {
        Buffer b(len);
        b.fillPattern(i + 1);
        data.push_back(b);
    }
    return data;
}

void
BM_XorInto(benchmark::State &state)
{
    const auto len = static_cast<std::size_t>(state.range(0));
    Buffer a(len), b(len);
    a.fillPattern(1);
    b.fillPattern(2);
    for (auto _ : state) {
        xorInto(a.data(), b.data(), len);
        benchmark::DoNotOptimize(a.data());
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(len));
}
BENCHMARK(BM_XorInto)->Arg(4096)->Arg(65536)->Arg(524288);

void
BM_GfMulAccum(benchmark::State &state)
{
    const auto len = static_cast<std::size_t>(state.range(0));
    Buffer src(len), dst(len);
    src.fillPattern(3);
    const auto &gf = Gf256::instance();
    for (auto _ : state) {
        gf.mulAccum(0x1d, src.data(), dst.data(), len);
        benchmark::DoNotOptimize(dst.data());
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(len));
}
BENCHMARK(BM_GfMulAccum)->Arg(4096)->Arg(65536)->Arg(131072)->Arg(524288);

// The dRAID sender-side Q coefficient: g^idx * partial into a fresh chunk.
void
BM_GfMulBlock(benchmark::State &state)
{
    const auto len = static_cast<std::size_t>(state.range(0));
    Buffer src(len), dst(len);
    src.fillPattern(4);
    const auto &gf = Gf256::instance();
    const std::uint8_t c = gf.pow2(3);
    for (auto _ : state) {
        gf.mulBlock(c, src.data(), dst.data(), len);
        benchmark::DoNotOptimize(dst.data());
        benchmark::ClobberMemory();
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                            static_cast<std::int64_t>(len));
}
BENCHMARK(BM_GfMulBlock)->Arg(4096)->Arg(65536)->Arg(131072)->Arg(524288);

void
BM_Raid5Parity(benchmark::State &state)
{
    auto data = makeData(7, 65536);
    for (auto _ : state) {
        auto p = Raid5Codec::computeParity(data);
        benchmark::DoNotOptimize(p.data());
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                            7 * 65536);
}
BENCHMARK(BM_Raid5Parity);

void
BM_Raid6PQ(benchmark::State &state)
{
    auto data = makeData(6, 65536);
    Buffer p, q;
    for (auto _ : state) {
        Raid6Codec::computePQ(data, p, q);
        benchmark::DoNotOptimize(q.data());
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                            6 * 65536);
}
BENCHMARK(BM_Raid6PQ);

void
BM_Raid6RecoverTwoData(benchmark::State &state)
{
    auto data = makeData(6, 65536);
    Buffer p, q;
    Raid6Codec::computePQ(data, p, q);
    for (auto _ : state) {
        auto broken = data;
        broken[1] = Buffer();
        broken[4] = Buffer();
        Raid6Codec::recoverTwoData(broken, p, q, 1, 4);
        benchmark::DoNotOptimize(broken[1].data());
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                            2 * 65536);
}
BENCHMARK(BM_Raid6RecoverTwoData);

void
BM_Raid5Delta(benchmark::State &state)
{
    Buffer oldc(131072), newc(131072);
    oldc.fillPattern(5);
    newc.fillPattern(6);
    for (auto _ : state) {
        auto d = Raid5Codec::delta(oldc, newc);
        benchmark::DoNotOptimize(d.data());
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                            131072);
}
BENCHMARK(BM_Raid5Delta);

// The hot RMW reduce on a parity server: a fresh session absorbs the
// old-parity preload and one 128 KB P partial at chunk offset 384 KB, then
// hands out the final window.
void
BM_ReduceAbsorb(benchmark::State &state)
{
    constexpr std::uint32_t kOff = 384 * 1024;
    constexpr std::uint32_t kLen = 128 * 1024;
    Buffer preload(kLen), partial(kLen);
    preload.fillPattern(7);
    partial.fillPattern(8);
    for (auto _ : state) {
        draid::core::ReduceSession s;
        s.baseOffset = kOff;
        s.length = kLen;
        draid::core::ReduceEngine::absorbNoCount(s, kOff, preload);
        draid::core::ReduceEngine::absorbNoCount(s, kOff, partial);
        Buffer w = draid::core::ReduceEngine::finalWindow(s);
        benchmark::DoNotOptimize(w.data());
        benchmark::ClobberMemory();
    }
    state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                            2 * kLen);
}
BENCHMARK(BM_ReduceAbsorb);

// A 128 KB window of a 512 KB chunk: arg 0 takes a view (slice()), arg 1 a
// deep copy (slice().clone(), what slice() used to cost).
void
BM_BufferSlice(benchmark::State &state)
{
    const bool copy = state.range(0) != 0;
    Buffer chunk(512 * 1024);
    chunk.fillPattern(9);
    for (auto _ : state) {
        Buffer s = chunk.slice(384 * 1024, 128 * 1024);
        if (copy)
            s = s.clone();
        benchmark::DoNotOptimize(s.data());
    }
    state.SetLabel(copy ? "copy" : "view");
}
BENCHMARK(BM_BufferSlice)->Arg(0)->Arg(1);

} // namespace

BENCHMARK_MAIN();

/**
 * @file
 * Table 6 — design overhead of the Ironman-NMP processing unit, plus
 * the power-efficiency comparison against the GPU (Sec. 6.1's 84.5x
 * claim).
 */

#include "bench_util.h"
#include "nmp/area_power.h"
#include "nmp/ironman_model.h"
#include "nmp/reference.h"

using namespace ironman;
using namespace ironman::bench;

int
main()
{
    banner("Table 6", "Ironman-NMP area and power (45nm, model "
                      "fitted to the paper's synthesis)");

    auto chacha = nmp::chaCha8Core();
    std::printf("%-24s | %10s | %10s\n", "component", "area mm^2",
                "power W");
    std::printf("%-24s | %10.3f | %10.3f\n", "ChaCha8 core",
                chacha.areaMm2, chacha.powerWatt);

    for (uint64_t kb : {256u, 1024u}) {
        nmp::PuSpec pu;
        pu.cacheBytes = kb * 1024;
        std::printf("%-16s%4lluKB$ | %10.3f | %10.3f\n", "Ironman-NMP,",
                    static_cast<unsigned long long>(kb), pu.areaMm2(),
                    pu.powerWatt());
    }
    std::printf("%-24s | %10.1f | %10.1f\n", "typical DRAM chip",
                nmp::ReferencePlatforms::dramChipAreaMm2,
                nmp::ReferencePlatforms::lrdimmPowerWatt);

    std::printf("\npaper: 1.482 / 2.995 mm^2 and 1.301 / 1.430 W for "
                "the 256KB / 1MB PUs (our model is fitted to "
                "these, then extrapolates other sizes).\n");

    // Power-efficiency comparison vs the GPU (Sec. 6.1).
    nmp::IronmanConfig cfg;
    cfg.numDimms = 8;
    cfg.cacheBytes = 1024 * 1024;
    cfg.sampleRows = fastMode() ? 60000 : 120000;
    ot::FerretParams p = ironmanParams(22);
    auto rep = nmp::IronmanModel(cfg, p).simulate();

    auto cpu = nmp::measureCpuOte(cpuBaselineParams(22), 24, 1);
    double gpu_secs = nmp::GpuReference::secondsPerExec(
        cpu.secondsPerExec);
    double gpu_energy = gpu_secs * nmp::ReferencePlatforms::gpuPowerWatt;

    std::printf("\nper-execution energy (2^22 set):\n");
    std::printf("%-10s | %10s | %12s | %10s\n", "platform", "time s",
                "avg power W", "energy J");
    std::printf("%-10s | %10.4f | %12.1f | %10.3f\n", "GPU(model)",
                gpu_secs, nmp::ReferencePlatforms::gpuPowerWatt,
                gpu_energy);
    std::printf("%-10s | %10.4f | %12.1f | %10.3f\n", "Ironman",
                rep.totalSeconds, rep.powerWatt, rep.energyJoule);

    nmp::PuSpec pu1m;
    pu1m.cacheBytes = 1024 * 1024;
    double pu_logic_power = pu1m.powerWatt() * cfg.numDimms;
    std::printf("-> latency gain %.1fx; power: %.1fx on PU logic "
                "(%.1f W), %.1fx on total incl. DRAM (%.1f W); "
                "energy %.0fx\n",
                gpu_secs / rep.totalSeconds,
                nmp::ReferencePlatforms::gpuPowerWatt / pu_logic_power,
                pu_logic_power,
                nmp::ReferencePlatforms::gpuPowerWatt / rep.powerWatt,
                rep.powerWatt, gpu_energy / rep.energyJoule);
    std::printf("   (paper: 40.31x latency, 84.5x power vs the "
                "A6000)\n");
    return 0;
}

//! Exact pins of the accelerator model's numbers: the frame schedule and the
//! Table 3 figures over a sweep of architectures, the Table 2 report and
//! power at every `PE_Zi` count, and the records and DSI of a multi-frame
//! device run.
//!
//! Cycle counts are pinned as integers and `f64` values by their bits, so a
//! refactor of the model that moves any figure by one cycle or one ulp fails
//! here, by case and line. A deliberate change to the model re-pins.

use eventor::dsi::{DepthPlanes, DsiVolume};
use eventor::events::fnv1a_64;
use eventor::fixed::kernel::{self, PhiWords};
use eventor::fixed::PackedCoord;
use eventor::hwsim::{
    estimate_resources, frame_timing, performance, sequence_runtime_seconds, AcceleratorConfig,
    EventorDevice, FrameExecution, FrameJob, FrameKind, PowerModel,
};

/// Compares `actual` with `expected` line by line, naming the first line
/// that differs.
fn assert_pinned(case: &str, actual: &str, expected: &str) {
    for (i, (a, e)) in actual.lines().zip(expected.lines()).enumerate() {
        assert_eq!(a, e, "{case}, line {}", i + 1);
    }
    assert_eq!(
        actual.lines().count(),
        expected.lines().count(),
        "{case}: line count\n{actual}"
    );
}

fn bits(values: &[f64]) -> String {
    values
        .iter()
        .map(|v| format!("{:016x}", v.to_bits()))
        .collect::<Vec<_>>()
        .join(" ")
}

/// `PE_Zi` × double buffering × depth planes, in that nesting order.
fn sweep() -> impl Iterator<Item = AcceleratorConfig> {
    [1usize, 2, 4, 8].into_iter().flat_map(|pe| {
        [true, false].into_iter().flat_map(move |db| {
            [25usize, 50, 100, 200].into_iter().map(move |planes| {
                AcceleratorConfig::default()
                    .with_pe_zi(pe)
                    .with_double_buffering(db)
                    .with_depth_planes(planes)
            })
        })
    })
}

/// Per configuration: the normal and key frame's canonical, proportional,
/// exposed-DMA and total cycles; then `performance`'s six figures and
/// `sequence_runtime_seconds` of 36 normal + 4 key and 1000 normal + 17 key
/// frames, as `f64` bits.
const SCHEDULE: &str = "\
pe=1 db=1 planes=25: normal 1071 25664 0 25664; key 1071 25664 0 26735
  perf 40207a17a17a17a2 4068ad4ad4ad4ad5 4068ad4ad4ad4ad5 4069b4ec4ec4ec4f 4153c9761ad01ea5 4152fe8a2c86a18a
  seq 3f803d60c423e26e 3fc9b777d0f1f57b
pe=1 db=1 planes=50: normal 1071 51264 0 51264; key 1071 51264 0 52335
  perf 40207a17a17a17a2 4078a56a56a56a56 4078a56a56a56a56 4079293b13b13b14 4143cfc90759cec9 414367fea15f68f3
  seq 3f902f93be1aa36c 3fd9acf8658532b9
pe=1 db=1 planes=100: normal 1071 102464 0 102464; key 1071 102464 0 103535
  perf 40207a17a17a17a2 4088a17a17a17a18 4088a17a17a17a18 4088e36276276276 4133d2f401eb3687 41339e74c7d5c4a3
  seq 3fa028ad3b1603eb 3fe9a7b8afced158
pe=1 db=1 planes=200: normal 1071 204864 0 204864; key 1071 204864 0 205935
  perf 40207a17a17a17a2 40989f81f81f81f8 40989f81f81f81f8 4098c07627627627 4123d489e07d669c 4123ba231e2d2fe4
  seq 3fb02539f993b42b 3ff9a518d4f3a0a8
pe=1 db=0 planes=25: normal 1071 25664 1228 26892; key 1071 25664 1228 27963
  perf 40207a17a17a17a2 4068ad4ad4ad4ad5 4069db91b91b91b9 406ae33333333333 4152e226c37e61b6 415229001e77ba7f
  seq 3f81037a6b2132e3 3fcaf242fab3b0ef
pe=1 db=0 planes=50: normal 1071 51264 1303 52567; key 1071 51264 1303 53638
  perf 40207a17a17a17a2 4078a56a56a56a56 407945c8dc8dc8dd 4079c9999999999a 414352119e9c3815 4142ef4f4b52c4cf
  seq 3f9098ad3c1e522c 3fda53fae7c3d99d
pe=1 db=0 planes=100: normal 1071 102464 1453 103917; key 1071 102464 1453 104988
  perf 40207a17a17a17a2 4088a17a17a17a18 4088fae46e46e46e 40893ccccccccccd 41338bfe5ab8949e 413358f26ed1b83c
  seq 3fa06346a49ce1d1 3fea04d6de4bedf4
pe=1 db=0 planes=200: normal 1071 204864 1753 206617; key 1071 204864 1753 207688
  perf 40207a17a17a17a2 40989f81f81f81f8 4098d57237237237 4098f66666666666 4123a977bc87530b 41238f82e2633889
  seq 3fb0489358dc29a3 3ff9dd44d98ff820
pe=2 db=1 planes=25: normal 1071 17840 0 17840; key 1071 17840 0 18911
  perf 40207a17a17a17a2 4061276276276276 4061276276276276 40622f03f03f03f1 415c76feda1dd8f9 415ada4e535c86aa
  seq 3f769e6e2535753d 3fc1e1cff66e029f
pe=2 db=1 planes=50: normal 1071 35680 0 35680; key 1071 35680 0 36751
  perf 40207a17a17a17a2 4071276276276276 4071276276276276 4071ab3333333333 414c76feda1dd8f9 414ba2a32e461701
  seq 3f868d2727ad3fcc 3fd1df8488c1eb86
pe=2 db=1 planes=100: normal 1071 71359 0 71359; key 1071 71359 0 72430
  perf 40207a17a17a17a2 40812752b52b52b5 40812752b52b52b5 4081693b13b13b13 413c7718fe7b8477 413c0b58779b0e65
  seq 3f96846f02cc1082 3fe1de4e69f05ea2
pe=2 db=1 planes=200: normal 1071 142718 0 142718; key 1071 142718 0 143789
  perf 40207a17a17a17a2 40912752b52b52b5 40912752b52b52b5 40914846e46e46e5 412c7718fe7b8477 412c40d2000a06f2
  seq 3fa6801d436a0326 3ff1ddbb8e8558dc
pe=2 db=0 planes=25: normal 1071 17840 1228 19068; key 1071 17840 1228 20139
  perf 40207a17a17a17a2 4061276276276276 406255a95a95a95b 40635d4ad4ad4ad5 415aa1b47e85ef23 4159372305467c72
  seq 3f782aa173301627 3fc31c9b202fbe13
pe=2 db=0 planes=50: normal 1071 35680 1303 36983; key 1071 35680 1303 38054
  perf 40207a17a17a17a2 4071276276276276 4071c7c0fc0fc0fc 40724b91b91b91b9 414b7641d4442422 414ab06564c2e03c
  seq 3f875f5a23b49d4c 3fd286870b00926a
pe=2 db=0 planes=100: normal 1071 71359 1453 72812; key 1071 71359 1453 73883
  perf 40207a17a17a17a2 40812752b52b52b5 408180bd0bd0bd0c 4081c2a56a56a56b 413be5ae10bc5706 413b7e27a8e0aaa3
  seq 3f96f9a1d5d9cc4d 3fe23b6c986d7b3e
pe=2 db=0 planes=200: normal 1071 142718 1753 144471; key 1071 142718 1753 145542
  perf 40207a17a17a17a2 40912752b52b52b5 40915d42f42f42f4 40917e3723723723 412c1ead32725151 412be9b4221f9c9b
  seq 3fa6c6d001faee17 3ff215e79321b054
pe=4 db=1 planes=25: normal 1071 17840 0 17840; key 1071 17840 0 18911
  perf 40207a17a17a17a2 4061276276276276 4061276276276276 40622f03f03f03f1 415c76feda1dd8f9 415ada4e535c86aa
  seq 3f769e6e2535753d 3fc1e1cff66e029f
pe=4 db=1 planes=50: normal 1071 35680 0 35680; key 1071 35680 0 36751
  perf 40207a17a17a17a2 4071276276276276 4071276276276276 4071ab3333333333 414c76feda1dd8f9 414ba2a32e461701
  seq 3f868d2727ad3fcc 3fd1df8488c1eb86
pe=4 db=1 planes=100: normal 1071 71359 0 71359; key 1071 71359 0 72430
  perf 40207a17a17a17a2 40812752b52b52b5 40812752b52b52b5 4081693b13b13b13 413c7718fe7b8477 413c0b58779b0e65
  seq 3f96846f02cc1082 3fe1de4e69f05ea2
pe=4 db=1 planes=200: normal 1071 142718 0 142718; key 1071 142718 0 143789
  perf 40207a17a17a17a2 40912752b52b52b5 40912752b52b52b5 40914846e46e46e5 412c7718fe7b8477 412c40d2000a06f2
  seq 3fa6801d436a0326 3ff1ddbb8e8558dc
pe=4 db=0 planes=25: normal 1071 17840 1228 19068; key 1071 17840 1228 20139
  perf 40207a17a17a17a2 4061276276276276 406255a95a95a95b 40635d4ad4ad4ad5 415aa1b47e85ef23 4159372305467c72
  seq 3f782aa173301627 3fc31c9b202fbe13
pe=4 db=0 planes=50: normal 1071 35680 1303 36983; key 1071 35680 1303 38054
  perf 40207a17a17a17a2 4071276276276276 4071c7c0fc0fc0fc 40724b91b91b91b9 414b7641d4442422 414ab06564c2e03c
  seq 3f875f5a23b49d4c 3fd286870b00926a
pe=4 db=0 planes=100: normal 1071 71359 1453 72812; key 1071 71359 1453 73883
  perf 40207a17a17a17a2 40812752b52b52b5 408180bd0bd0bd0c 4081c2a56a56a56b 413be5ae10bc5706 413b7e27a8e0aaa3
  seq 3f96f9a1d5d9cc4d 3fe23b6c986d7b3e
pe=4 db=0 planes=200: normal 1071 142718 1753 144471; key 1071 142718 1753 145542
  perf 40207a17a17a17a2 40912752b52b52b5 40915d42f42f42f4 40917e3723723723 412c1ead32725151 412be9b4221f9c9b
  seq 3fa6c6d001faee17 3ff215e79321b054
pe=8 db=1 planes=25: normal 1071 17840 0 17840; key 1071 17840 0 18911
  perf 40207a17a17a17a2 4061276276276276 4061276276276276 40622f03f03f03f1 415c76feda1dd8f9 415ada4e535c86aa
  seq 3f769e6e2535753d 3fc1e1cff66e029f
pe=8 db=1 planes=50: normal 1071 35680 0 35680; key 1071 35680 0 36751
  perf 40207a17a17a17a2 4071276276276276 4071276276276276 4071ab3333333333 414c76feda1dd8f9 414ba2a32e461701
  seq 3f868d2727ad3fcc 3fd1df8488c1eb86
pe=8 db=1 planes=100: normal 1071 71359 0 71359; key 1071 71359 0 72430
  perf 40207a17a17a17a2 40812752b52b52b5 40812752b52b52b5 4081693b13b13b13 413c7718fe7b8477 413c0b58779b0e65
  seq 3f96846f02cc1082 3fe1de4e69f05ea2
pe=8 db=1 planes=200: normal 1071 142718 0 142718; key 1071 142718 0 143789
  perf 40207a17a17a17a2 40912752b52b52b5 40912752b52b52b5 40914846e46e46e5 412c7718fe7b8477 412c40d2000a06f2
  seq 3fa6801d436a0326 3ff1ddbb8e8558dc
pe=8 db=0 planes=25: normal 1071 17840 1228 19068; key 1071 17840 1228 20139
  perf 40207a17a17a17a2 4061276276276276 406255a95a95a95b 40635d4ad4ad4ad5 415aa1b47e85ef23 4159372305467c72
  seq 3f782aa173301627 3fc31c9b202fbe13
pe=8 db=0 planes=50: normal 1071 35680 1303 36983; key 1071 35680 1303 38054
  perf 40207a17a17a17a2 4071276276276276 4071c7c0fc0fc0fc 40724b91b91b91b9 414b7641d4442422 414ab06564c2e03c
  seq 3f875f5a23b49d4c 3fd286870b00926a
pe=8 db=0 planes=100: normal 1071 71359 1453 72812; key 1071 71359 1453 73883
  perf 40207a17a17a17a2 40812752b52b52b5 408180bd0bd0bd0c 4081c2a56a56a56b 413be5ae10bc5706 413b7e27a8e0aaa3
  seq 3f96f9a1d5d9cc4d 3fe23b6c986d7b3e
pe=8 db=0 planes=200: normal 1071 142718 1753 144471; key 1071 142718 1753 145542
  perf 40207a17a17a17a2 40912752b52b52b5 40915d42f42f42f4 40917e3723723723 412c1ead32725151 412be9b4221f9c9b
  seq 3fa6c6d001faee17 3ff215e79321b054
";

#[test]
fn frame_schedule_and_table3_figures_are_pinned() {
    let mut actual = String::new();
    for config in sweep() {
        let [normal, key] = [FrameKind::Normal, FrameKind::Key].map(|kind| {
            let t = frame_timing(&config, kind);
            format!(
                "{} {} {} {}",
                t.canonical_cycles, t.proportional_cycles, t.exposed_dma_cycles, t.total_cycles
            )
        });
        let p = performance(&config);
        actual += &format!(
            "pe={} db={} planes={}: normal {normal}; key {key}\n  perf {}\n  seq {}\n",
            config.num_pe_zi,
            u8::from(config.double_buffering),
            config.num_depth_planes,
            bits(&[
                p.canonical_us,
                p.proportional_us,
                p.normal_frame_us,
                p.key_frame_us,
                p.event_rate_normal,
                p.event_rate_key,
            ]),
            bits(&[
                sequence_runtime_seconds(&config, 36, 4),
                sequence_runtime_seconds(&config, 1000, 17),
            ]),
        );
    }
    assert_pinned("schedule", &actual, SCHEDULE);
}

/// Per `PE_Zi` count 1–8: the accelerator power as `f64` bits, then the
/// Table 2 report as `to_table` prints it.
const RESOURCES: &str = "\
pe=1 power 3ffce9ed6f03c3da
component                         LUT       FF  BRAM (KB)
Canonical Projection (PE_Z0)     4200     5600        0.0
Proportional Projection PEs      2450     3100        0.0
Vote Execute Unit                3600     4400        0.0
DMA + AXI interface              2900     4100        0.0
Controllers + Data Allocator     1938     2530        0.0
Double-buffered BRAMs               0        0       52.0
TOTAL                           15088    19730       52.0
utilization: LUT 28.36%  FF 18.54%  BRAM 9.29%
pe=2 power 3ffdbeeb62ba097c
component                         LUT       FF  BRAM (KB)
Canonical Projection (PE_Z0)     4200     5600        0.0
Proportional Projection PEs      4900     6200        0.0
Vote Execute Unit                3600     4400        0.0
DMA + AXI interface              2900     4100        0.0
Controllers + Data Allocator     1938     2530        0.0
Double-buffered BRAMs               0        0       60.0
TOTAL                           17538    22830       60.0
utilization: LUT 32.97%  FF 21.46%  BRAM 10.71%
pe=3 power 3ffe93e956704f1e
component                         LUT       FF  BRAM (KB)
Canonical Projection (PE_Z0)     4200     5600        0.0
Proportional Projection PEs      7350     9300        0.0
Vote Execute Unit                3600     4400        0.0
DMA + AXI interface              2900     4100        0.0
Controllers + Data Allocator     1938     2530        0.0
Double-buffered BRAMs               0        0       68.0
TOTAL                           19988    25930       68.0
utilization: LUT 37.57%  FF 24.37%  BRAM 12.14%
pe=4 power 3fff68e74a2694c0
component                         LUT       FF  BRAM (KB)
Canonical Projection (PE_Z0)     4200     5600        0.0
Proportional Projection PEs      9800    12400        0.0
Vote Execute Unit                3600     4400        0.0
DMA + AXI interface              2900     4100        0.0
Controllers + Data Allocator     1938     2530        0.0
Double-buffered BRAMs               0        0       76.0
TOTAL                           22438    29030       76.0
utilization: LUT 42.18%  FF 27.28%  BRAM 13.57%
pe=5 power 40001ef29eee6d31
component                         LUT       FF  BRAM (KB)
Canonical Projection (PE_Z0)     4200     5600        0.0
Proportional Projection PEs     12250    15500        0.0
Vote Execute Unit                3600     4400        0.0
DMA + AXI interface              2900     4100        0.0
Controllers + Data Allocator     1938     2530        0.0
Double-buffered BRAMs               0        0       84.0
TOTAL                           24888    32130       84.0
utilization: LUT 46.78%  FF 30.20%  BRAM 15.00%
pe=6 power 4000897198c99002
component                         LUT       FF  BRAM (KB)
Canonical Projection (PE_Z0)     4200     5600        0.0
Proportional Projection PEs     14700    18600        0.0
Vote Execute Unit                3600     4400        0.0
DMA + AXI interface              2900     4100        0.0
Controllers + Data Allocator     1938     2530        0.0
Double-buffered BRAMs               0        0       92.0
TOTAL                           27338    35230       92.0
utilization: LUT 51.39%  FF 33.11%  BRAM 16.43%
pe=7 power 4000f3f092a4b2d3
component                         LUT       FF  BRAM (KB)
Canonical Projection (PE_Z0)     4200     5600        0.0
Proportional Projection PEs     17150    21700        0.0
Vote Execute Unit                3600     4400        0.0
DMA + AXI interface              2900     4100        0.0
Controllers + Data Allocator     1938     2530        0.0
Double-buffered BRAMs               0        0      100.0
TOTAL                           29788    38330      100.0
utilization: LUT 55.99%  FF 36.02%  BRAM 17.86%
pe=8 power 40015e6f8c7fd5a4
component                         LUT       FF  BRAM (KB)
Canonical Projection (PE_Z0)     4200     5600        0.0
Proportional Projection PEs     19600    24800        0.0
Vote Execute Unit                3600     4400        0.0
DMA + AXI interface              2900     4100        0.0
Controllers + Data Allocator     1938     2530        0.0
Double-buffered BRAMs               0        0      108.0
TOTAL                           32238    41430      108.0
utilization: LUT 60.60%  FF 38.94%  BRAM 19.29%
";

#[test]
fn resource_report_and_power_are_pinned() {
    let mut actual = String::new();
    for pe in 1..=8 {
        let config = AcceleratorConfig::default().with_pe_zi(pe);
        let report = estimate_resources(&config);
        let power = PowerModel::default().accelerator_power_w(&config, &report);
        actual += &format!("pe={pe} power {}\n{}", bits(&[power]), report.to_table());
    }
    assert_pinned("resources", &actual, RESOURCES);
}

/// Five frames on a 40×30 sensor with six planes: a key frame that drops
/// every event past the Q9.7 range, a normal frame whose growing epipole
/// offsets push transfers off the sensor, a normal frame that votes every
/// transfer, a short key frame, and a normal frame whose homography drops
/// every event.
fn device_jobs() -> Vec<FrameJob> {
    const PLANES: usize = 6;
    let job =
        |kind, h: [[f64; 3]; 3], phi: &dyn Fn(usize) -> PhiWords, events: &[(f64, f64)]| FrameJob {
            event_words: events
                .iter()
                .map(|&(x, y)| PackedCoord::from_f64(x, y).to_word())
                .collect(),
            homography_words: kernel::quantize_homography(&h),
            phi_words: (0..PLANES).map(phi).collect(),
            kind,
        };
    let identity = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]];
    let unit = |_| PhiWords::from_f64(1.0, 0.0, 0.0);
    let offsets = |i: usize| {
        PhiWords::from_f64(
            1.0 - 0.05 * i as f64,
            9.0 * i as f64 - 10.0,
            -4.0 * i as f64,
        )
    };
    let spread: Vec<(f64, f64)> = (0..200)
        .map(|i| ((i % 40) as f64 + 0.25, ((i * 7) % 30) as f64 - 0.5))
        .collect();
    vec![
        job(
            FrameKind::Key,
            [[8.0, 0.0, 0.0], [0.0, 8.0, 0.0], [0.0, 0.0, 1.0]],
            &|_| PhiWords::from_f64(0.125, 0.0, 0.0),
            &spread,
        ),
        job(FrameKind::Normal, identity, &offsets, &spread),
        job(FrameKind::Normal, identity, &unit, &spread[..150]),
        job(FrameKind::Key, identity, &offsets, &spread[..77]),
        job(
            FrameKind::Normal,
            [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.0]],
            &unit,
            &spread[..64],
        ),
    ]
}

fn execution_line(e: &FrameExecution) -> String {
    format!(
        "{:?}: in {} dropped {} missed {} votes {}; dma {} canonical {} proportional {} reset {} total {}",
        e.kind,
        e.events_in,
        e.events_dropped,
        e.transfers_missed,
        e.votes_applied,
        e.dma_cycles,
        e.canonical_cycles,
        e.proportional_cycles,
        e.reset_cycles,
        e.total_cycles
    )
}

/// The DSI's vote count and the FNV-1a-64 of its score bytes (each score
/// little-endian, plane-major).
fn dsi_line(dsi: &DsiVolume<u16>) -> String {
    let bytes: Vec<u8> = dsi
        .raw_scores()
        .iter()
        .flat_map(|s| s.to_le_bytes())
        .collect();
    format!(
        "dsi: votes_cast {} fnv1a64 {:016x}\n",
        dsi.votes_cast(),
        fnv1a_64(&bytes)
    )
}

/// Per `PE_Zi` count 1, 2, 4 and double buffering on, off: every frame's
/// `FrameExecution`, then the DSI the frames voted into.
const DEVICE_RUN: &str = "\
pe=1 db=1
  Key: in 200 dropped 40 missed 42 votes 918; dma 347 canonical 247 proportional 1024 reset 1255 total 1271
  Normal: in 200 dropped 0 missed 673 votes 527; dma 347 canonical 247 proportional 1264 reset 0 total 1264
  Normal: in 150 dropped 0 missed 30 votes 870; dma 297 canonical 197 proportional 964 reset 0 total 964
  Key: in 77 dropped 0 missed 258 votes 204; dma 224 canonical 124 proportional 526 reset 1255 total 650
  Normal: in 64 dropped 64 missed 0 votes 0; dma 211 canonical 111 proportional 64 reset 0 total 64
dsi: votes_cast 204 fnv1a64 3570b1d4a9e4b3dd
pe=1 db=0
  Key: in 200 dropped 40 missed 42 votes 918; dma 347 canonical 247 proportional 1024 reset 1255 total 1618
  Normal: in 200 dropped 0 missed 673 votes 527; dma 347 canonical 247 proportional 1264 reset 0 total 1611
  Normal: in 150 dropped 0 missed 30 votes 870; dma 297 canonical 197 proportional 964 reset 0 total 1261
  Key: in 77 dropped 0 missed 258 votes 204; dma 224 canonical 124 proportional 526 reset 1255 total 874
  Normal: in 64 dropped 64 missed 0 votes 0; dma 211 canonical 111 proportional 64 reset 0 total 275
dsi: votes_cast 204 fnv1a64 3570b1d4a9e4b3dd
pe=2 db=1
  Key: in 200 dropped 40 missed 42 votes 918; dma 347 canonical 247 proportional 640 reset 1255 total 887
  Normal: in 200 dropped 0 missed 673 votes 527; dma 347 canonical 247 proportional 664 reset 0 total 664
  Normal: in 150 dropped 0 missed 30 votes 870; dma 297 canonical 197 proportional 607 reset 0 total 607
  Key: in 77 dropped 0 missed 258 votes 204; dma 224 canonical 124 proportional 295 reset 1255 total 419
  Normal: in 64 dropped 64 missed 0 votes 0; dma 211 canonical 111 proportional 64 reset 0 total 64
dsi: votes_cast 204 fnv1a64 3570b1d4a9e4b3dd
pe=2 db=0
  Key: in 200 dropped 40 missed 42 votes 918; dma 347 canonical 247 proportional 640 reset 1255 total 1234
  Normal: in 200 dropped 0 missed 673 votes 527; dma 347 canonical 247 proportional 664 reset 0 total 1011
  Normal: in 150 dropped 0 missed 30 votes 870; dma 297 canonical 197 proportional 607 reset 0 total 904
  Key: in 77 dropped 0 missed 258 votes 204; dma 224 canonical 124 proportional 295 reset 1255 total 643
  Normal: in 64 dropped 64 missed 0 votes 0; dma 211 canonical 111 proportional 64 reset 0 total 275
dsi: votes_cast 204 fnv1a64 3570b1d4a9e4b3dd
pe=4 db=1
  Key: in 200 dropped 40 missed 42 votes 918; dma 347 canonical 247 proportional 640 reset 1255 total 887
  Normal: in 200 dropped 0 missed 673 votes 527; dma 347 canonical 247 proportional 464 reset 0 total 464
  Normal: in 150 dropped 0 missed 30 votes 870; dma 297 canonical 197 proportional 607 reset 0 total 607
  Key: in 77 dropped 0 missed 258 votes 204; dma 224 canonical 124 proportional 218 reset 1255 total 342
  Normal: in 64 dropped 64 missed 0 votes 0; dma 211 canonical 111 proportional 64 reset 0 total 64
dsi: votes_cast 204 fnv1a64 3570b1d4a9e4b3dd
pe=4 db=0
  Key: in 200 dropped 40 missed 42 votes 918; dma 347 canonical 247 proportional 640 reset 1255 total 1234
  Normal: in 200 dropped 0 missed 673 votes 527; dma 347 canonical 247 proportional 464 reset 0 total 811
  Normal: in 150 dropped 0 missed 30 votes 870; dma 297 canonical 197 proportional 607 reset 0 total 904
  Key: in 77 dropped 0 missed 258 votes 204; dma 224 canonical 124 proportional 218 reset 1255 total 566
  Normal: in 64 dropped 64 missed 0 votes 0; dma 211 canonical 111 proportional 64 reset 0 total 275
dsi: votes_cast 204 fnv1a64 3570b1d4a9e4b3dd
";

#[test]
fn device_run_records_are_pinned() {
    let jobs = device_jobs();
    let mut actual = String::new();
    for pe in [1, 2, 4] {
        for db in [true, false] {
            let mut config = AcceleratorConfig::default()
                .with_pe_zi(pe)
                .with_depth_planes(6)
                .with_double_buffering(db);
            config.sensor_width = 40;
            config.sensor_height = 30;
            let planes = DepthPlanes::uniform_inverse_depth(1.0, 4.0, 6).expect("six planes");
            let mut dsi = DsiVolume::new(40, 30, planes).expect("a 40x30 DSI");
            let mut device = EventorDevice::new(config);
            actual += &format!("pe={pe} db={}\n", u8::from(db));
            for job in &jobs {
                let exec = device.run_frame(job, &mut dsi).expect("a valid job");
                actual += &format!("  {}\n", execution_line(&exec));
            }
            actual += &dsi_line(&dsi);
        }
    }
    assert_pinned("device run", &actual, DEVICE_RUN);
}

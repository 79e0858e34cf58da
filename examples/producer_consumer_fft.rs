//! §2.1 "Scalability of systems" — the FFT producer/consumer pattern.
//!
//! Run with `cargo run -p tsbus-core --example producer_consumer_fft --release`.
//!
//! The paper's motivating example: low-end nodes without FPUs put vectors
//! into the space as `("fft-request", id, samples)`; high-end nodes with
//! FPUs take requests, compute the transform, and write back
//! `("fft-result", id, spectrum)`. "The overall system performance are
//! clearly proportional to the number of consumers" — this example
//! measures exactly that, with a real radix-2 FFT doing the work.
//!
//! The consumers are worker threads sharing one [`Space`] behind a mutex.
//! They only write, take without blocking and count, so every entry lives
//! forever and the space's virtual clock can stay at zero.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use tsbus_des::SimTime;
use tsbus_tuplespace::{template, tuple, Lease, Space, Value, ValueType};

/// The one instant every operation is stamped with: entries never expire.
const NOW: SimTime = SimTime::ZERO;

/// In-place radix-2 Cooley–Tukey FFT over interleaved re/im pairs.
fn fft(buf: &mut [(f64, f64)]) {
    let n = buf.len();
    assert!(n.is_power_of_two(), "radix-2 FFT needs a power-of-two size");
    // Bit-reversal permutation.
    let mut j = 0;
    for i in 1..n {
        let mut bit = n >> 1;
        while j & bit != 0 {
            j ^= bit;
            bit >>= 1;
        }
        j |= bit;
        if i < j {
            buf.swap(i, j);
        }
    }
    // Butterflies.
    let mut len = 2;
    while len <= n {
        let angle = -2.0 * std::f64::consts::PI / len as f64;
        let (w_re, w_im) = (angle.cos(), angle.sin());
        for start in (0..n).step_by(len) {
            let (mut cur_re, mut cur_im) = (1.0f64, 0.0f64);
            for k in 0..len / 2 {
                let (a_re, a_im) = buf[start + k];
                let (b_re, b_im) = buf[start + k + len / 2];
                let t_re = b_re * cur_re - b_im * cur_im;
                let t_im = b_re * cur_im + b_im * cur_re;
                buf[start + k] = (a_re + t_re, a_im + t_im);
                buf[start + k + len / 2] = (a_re - t_re, a_im - t_im);
                let next_re = cur_re * w_re - cur_im * w_im;
                cur_im = cur_re * w_im + cur_im * w_re;
                cur_re = next_re;
            }
        }
        len <<= 1;
    }
}

/// Serializes f64 samples into a bytes field.
fn pack(samples: &[f64]) -> Vec<u8> {
    samples.iter().flat_map(|s| s.to_le_bytes()).collect()
}

fn unpack(bytes: &[u8]) -> Vec<f64> {
    bytes
        .chunks_exact(8)
        .map(|c| f64::from_le_bytes(c.try_into().expect("chunks_exact(8)")))
        .collect()
}

/// Runs `jobs` FFT requests through `consumers` worker nodes; returns the
/// wall time to drain the queue.
fn run_farm(consumers: usize, jobs: usize, fft_size: usize) -> Duration {
    let space = Arc::new(Mutex::new(Space::new()));

    // Producers: cheap nodes that only generate sample vectors.
    for id in 0..jobs {
        let samples: Vec<f64> = (0..fft_size)
            .map(|i| (i as f64 * 0.1 + id as f64).sin())
            .collect();
        let request = tuple!["fft-request", id as i64, pack(&samples)];
        space
            .lock()
            .expect("space lock")
            .write(request, Lease::Forever, NOW);
    }

    let start = Instant::now();
    let workers: Vec<_> = (0..consumers)
        .map(|_| {
            let space = Arc::clone(&space);
            std::thread::spawn(move || {
                let wanted = template!["fft-request", ValueType::Int, ValueType::Bytes];
                // Bind the take first so the lock is released before the FFT.
                loop {
                    let taken = space.lock().expect("space lock").take(&wanted, NOW);
                    let Some(request) = taken else {
                        break;
                    };
                    let id = request.field(1).and_then(Value::as_int).expect("int id");
                    let samples =
                        unpack(request.field(2).and_then(Value::as_bytes).expect("bytes"));
                    let mut buf: Vec<(f64, f64)> = samples.iter().map(|&s| (s, 0.0)).collect();
                    // The "high performance node with FPU support" does
                    // real work (repeated to make compute dominate).
                    for _ in 0..200 {
                        fft(&mut buf);
                    }
                    let spectrum: Vec<f64> = buf
                        .iter()
                        .map(|(re, im)| (re * re + im * im).sqrt())
                        .collect();
                    let result = tuple!["fft-result", id, pack(&spectrum)];
                    space
                        .lock()
                        .expect("space lock")
                        .write(result, Lease::Forever, NOW);
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("worker thread");
    }
    let elapsed = start.elapsed();
    let results = template!["fft-result", ValueType::Int, ValueType::Bytes];
    assert_eq!(
        space.lock().expect("space lock").count(&results, NOW),
        jobs,
        "every request must have produced a result"
    );
    elapsed
}

fn main() {
    println!("§2.1 — FFT service farm over the tuplespace\n");
    let jobs = 64;
    let fft_size = 256;
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    println!("{jobs} FFT requests of {fft_size} points each ({cores} CPU core(s) available)\n");
    let base = run_farm(1, jobs, fft_size);
    println!("consumers=1: {base:>8.1?}  (speedup 1.0x)");
    let mut best = 1.0f64;
    for consumers in [2usize, 4, 8] {
        let t = run_farm(consumers, jobs, fft_size);
        let speedup = base.as_secs_f64() / t.as_secs_f64();
        best = best.max(speedup);
        println!("consumers={consumers}: {t:>8.1?}  (speedup {speedup:.1}x)");
    }
    if cores > 1 {
        println!(
            "\nThroughput scales with the number of consumers (up to the {cores} cores\n\
             of this host), with zero coordination code: the anonymous, associative\n\
             take is the whole scheduler."
        );
    } else {
        println!(
            "\nThis host exposes a single CPU, so wall-clock speedup is bounded at 1x —\n\
             but note what the numbers do show: adding consumers costs nothing. The\n\
             anonymous, associative take is the whole scheduler; on a multi-core (or\n\
             multi-node) deployment the same code scales with the consumer count."
        );
    }
}

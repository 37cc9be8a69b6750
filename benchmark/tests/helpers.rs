//! The benchmark's own arithmetic: order statistics, the tail-percentile
//! rule, open-loop due-time and lag accounting, capacity, and digests.
//! Run with `cargo test` inside `benchmark/`.

use std::time::Duration;

use hero_benchmark::digest;
use hero_benchmark::json::Json;
use hero_benchmark::openloop::{capacity_rps, due, schedule, Kind, Timing};
use hero_benchmark::stats::{
    median, percentile, quartiles, samples_beyond, tail_percentile, Summary,
};

fn ms(x: u64) -> Duration {
    Duration::from_millis(x)
}

#[test]
fn quartiles_match_python_statistics_quantiles() {
    // Expected values from `statistics.quantiles(values, n=4)`.
    let cases: [(&[f64], [f64; 3]); 5] = [
        (
            &[1., 2., 3., 4., 5., 6., 7., 8., 9., 10.],
            [2.75, 5.5, 8.25],
        ),
        (&[1., 2., 3., 4.], [1.25, 2.5, 3.75]),
        (&[3.5, 1.25, 9.0], [1.25, 3.5, 9.0]),
        (&[10., 20.], [7.5, 15.0, 22.5]),
        (&[7., 1., 3., 5., 9., 11., 2.], [2.0, 5.0, 9.0]),
    ];
    for (values, want) in cases {
        assert_eq!(quartiles(values), want, "{values:?}");
    }
}

#[test]
fn median_matches_python_statistics_median() {
    assert_eq!(median(&[1., 2., 3., 4., 5., 6., 7., 8., 9., 10.]), 5.5);
    assert_eq!(median(&[7., 1., 3., 5., 9., 11., 2.]), 5.0);
    assert_eq!(median(&[4.0]), 4.0);
    assert!(median(&[]).is_nan());
}

#[test]
fn summary_holds_median_quartiles_and_count() {
    let s = Summary::of(&[1., 2., 3., 4.]);
    assert_eq!((s.q1, s.median, s.q3, s.n), (1.25, 2.5, 3.75, 4));
    let one = Summary::of(&[3.0]);
    assert_eq!((one.q1, one.median, one.q3), (3.0, 3.0, 3.0));
}

#[test]
fn percentile_is_nearest_rank() {
    let values: Vec<f64> = (1..=100).map(f64::from).collect();
    assert_eq!(percentile(&values, 50.0), 50.0);
    assert_eq!(percentile(&values, 99.0), 99.0);
    assert_eq!(percentile(&values, 100.0), 100.0);
    assert_eq!(percentile(&values, 0.0), 1.0);
    assert_eq!(percentile(&[5.0, 1.0, 3.0], 50.0), 3.0);
}

#[test]
fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
    assert_eq!(samples_beyond(1000, 99.0), 10);
    assert_eq!(samples_beyond(999, 99.0), 9);
    assert_eq!(samples_beyond(0, 50.0), 0);
    let values = |n: usize| -> Vec<f64> { (1..=n).map(|i| i as f64).collect() };
    // 10 000 samples: p99.9 keeps exactly 10 beyond it.
    assert_eq!(tail_percentile(&values(10_000)), Some((99.9, 9_990.0)));
    assert_eq!(tail_percentile(&values(1_000)), Some((99.0, 990.0)));
    // 999 samples leave only 9 beyond p99, so the tail falls back to p95.
    assert_eq!(tail_percentile(&values(999)).map(|t| t.0), Some(95.0));
    assert_eq!(tail_percentile(&values(500)).map(|t| t.0), Some(95.0));
    assert_eq!(tail_percentile(&values(20)), Some((50.0, 10.0)));
    assert_eq!(tail_percentile(&values(19)), None);
}

#[test]
fn due_times_follow_the_fixed_rate() {
    assert_eq!(due(0, 200.0), Duration::ZERO);
    assert_eq!(due(1, 200.0), ms(5));
    assert_eq!(due(200, 200.0), ms(1000));
    assert_eq!(due(250, 100.0), ms(2500));
}

#[test]
fn schedule_interleaves_reloads_at_whole_seconds() {
    let slots = schedule(200.0, 2.5, 64, 2, Some(ms(1000)));
    let acts = slots
        .iter()
        .filter(|s| matches!(s.kind, Kind::Act { .. }))
        .count();
    let reloads: Vec<Duration> = slots
        .iter()
        .filter(|s| s.kind == Kind::Reload)
        .map(|s| s.due)
        .collect();
    assert_eq!(acts, 500);
    assert_eq!(reloads, vec![ms(1000), ms(2000)]);
    assert!(
        slots.windows(2).all(|w| w[0].due <= w[1].due),
        "sorted by due time"
    );
    // A reload due with an act goes first.
    let at_one = slots.iter().position(|s| s.due == ms(1000)).unwrap();
    assert_eq!(slots[at_one].kind, Kind::Reload);
    // Rows and agents cycle.
    assert_eq!(slots[0].kind, Kind::Act { row: 0, agent: 0 });
    assert_eq!(slots[1].kind, Kind::Act { row: 1, agent: 1 });
    assert!(schedule(100.0, 1.0, 8, 1, None)
        .iter()
        .all(|s| s.kind != Kind::Reload));
}

#[test]
fn latency_counts_from_the_due_time_and_lag_is_reported() {
    // Due at 10 ms, sent late at 15 ms behind a stall, answered at 17 ms.
    let late = Timing {
        due: ms(10),
        sent: ms(15),
        done: ms(17),
    };
    assert_eq!(late.latency(), ms(7));
    assert_eq!(late.service(), ms(2));
    assert_eq!(late.lag(), ms(5));
    // On time: latency equals service time and there is no lag.
    let on_time = Timing {
        due: ms(20),
        sent: ms(20),
        done: ms(23),
    };
    assert_eq!(on_time.latency(), on_time.service());
    assert_eq!(on_time.lag(), Duration::ZERO);
}

#[test]
fn capacity_is_successes_over_time_to_last_reply() {
    assert_eq!(capacity_rps(800, ms(1000)), 800.0);
    assert_eq!(capacity_rps(401, ms(500)), 802.0);
    assert_eq!(capacity_rps(0, ms(1000)), 0.0);
    assert_eq!(capacity_rps(10, Duration::ZERO), 0.0);
}

#[test]
fn digest_sees_names_and_bytes() {
    let a = vec![("agent0/params".to_string(), vec![1u8, 2, 3])];
    let b = vec![("agent0/params".to_string(), vec![1u8, 2, 4])];
    let c = vec![("agent1/params".to_string(), vec![1u8, 2, 3])];
    assert_eq!(digest(&a), digest(&a.clone()));
    assert_ne!(digest(&a), digest(&b));
    assert_ne!(digest(&a), digest(&c));
    assert_eq!(digest(&a).len(), 16);
}

#[test]
fn json_prints_every_digit_and_no_exponent() {
    let line = Json::obj([
        ("value", Json::from(1.2034)),
        ("small", Json::from(0.000_012_5)),
        ("bad", Json::from(f64::NAN)),
        ("unit", Json::from("ms")),
        ("ok", Json::from(true)),
    ]);
    assert_eq!(
        line.to_string(),
        r#"{"value":1.2034,"small":0.0000125,"bad":null,"unit":"ms","ok":true}"#
    );
    assert_eq!(Json::from("a\"b\\c\n").to_string(), r#""a\"b\\c\n""#);
}

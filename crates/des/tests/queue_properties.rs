//! Property tests for the event queue: for any insertion order, events pop
//! sorted by (time, insertion sequence).

use mf_des::{EventQueue, SimTime};
use mf_fuzz::{check, Gen};

#[test]
fn pops_sorted_by_time_then_seq() {
    let input = |g: &mut Gen| g.vec(0..300, |g| g.f64(0.0..1e6));
    check(256, 1, input, |times| {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_secs(t), i);
        }
        let mut prev: Option<(SimTime, u64)> = None;
        let mut count = 0;
        while let Some(ev) = q.pop() {
            if let Some((pt, ps)) = prev {
                assert!(ev.time >= pt, "time went backwards");
                if ev.time == pt {
                    assert!(ev.seq > ps, "FIFO tie-break violated");
                }
            }
            prev = Some((ev.time, ev.seq));
            count += 1;
        }
        assert_eq!(count, times.len());
    });
}

#[test]
fn len_tracks_push_pop() {
    let input = |g: &mut Gen| g.vec(0..200, |g| (g.f64(0.0..100.0), g.bool()));
    check(256, 2, input, |ops| {
        let mut q = EventQueue::new();
        let mut expected = 0usize;
        for (t, is_push) in ops {
            if is_push {
                q.push(SimTime::from_secs(t), ());
                expected += 1;
            } else if q.pop().is_some() {
                expected -= 1;
            }
            assert_eq!(q.len(), expected);
            assert_eq!(q.is_empty(), expected == 0);
        }
    });
}

#[test]
fn engine_matches_offline_sort() {
    let input = |g: &mut Gen| g.vec(1..200, |g| g.f64(0.0..1e3));
    check(256, 3, input, |times| {
        // Running the engine over pre-scheduled events must visit
        // payloads in the order of a stable sort by time.
        let mut engine: mf_des::Engine<usize> = mf_des::Engine::new();
        for (i, &t) in times.iter().enumerate() {
            engine.schedule(SimTime::from_secs(t), i);
        }
        let mut visited = Vec::new();
        engine.run(|_, idx, _| visited.push(idx));

        let mut expected: Vec<usize> = (0..times.len()).collect();
        expected.sort_by(|&a, &b| times[a].partial_cmp(&times[b]).unwrap().then(a.cmp(&b)));
        assert_eq!(visited, expected);
    });
}

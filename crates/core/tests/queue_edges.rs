//! Edge-case coverage for [`BoundedQueue`]: shutdown races (close while
//! producers/consumers are blocked), zero-window `pop_timeout` under
//! contention, drain ordering after close, and a seeded multi-producer /
//! multi-consumer stress run. The queue is the substrate under both the
//! experiment scheduler and the serving admission path, so these are the
//! races both subsystems implicitly rely on.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use blurnet::queue::{run_workers, BoundedQueue, PopTimeout, TryPush};

#[test]
fn close_wakes_every_blocked_producer_with_its_item_back() {
    let queue = Arc::new(BoundedQueue::new(1));
    queue.push(0u32).expect("first push fills the queue");
    let producers: Vec<_> = (1..=4u32)
        .map(|v| {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || queue.push(v))
        })
        .collect();
    // Give every producer time to block on the full queue, then close.
    std::thread::sleep(Duration::from_millis(30));
    queue.close();
    for (i, producer) in producers.into_iter().enumerate() {
        let refused = producer.join().expect("producer thread");
        assert_eq!(
            refused,
            Err(i as u32 + 1),
            "a blocked producer must get exactly its own item back"
        );
    }
    // The item admitted before the close still drains.
    assert_eq!(queue.pop(), Some(0));
    assert_eq!(queue.pop(), None);
}

#[test]
fn close_wakes_every_blocked_consumer_exactly_once() {
    let queue = Arc::new(BoundedQueue::<u32>::new(4));
    let consumers: Vec<_> = (0..4)
        .map(|_| {
            let queue = Arc::clone(&queue);
            std::thread::spawn(move || queue.pop())
        })
        .collect();
    std::thread::sleep(Duration::from_millis(30));
    queue.close();
    for consumer in consumers {
        assert_eq!(consumer.join().expect("consumer thread"), None);
    }
}

#[test]
fn zero_window_pop_timeout_drains_everything_under_contention() {
    // The serve batcher's zero-width flush window degenerates to exactly
    // this pattern: consumers polling `pop_timeout(0)` in a loop must
    // still collectively drain every item producers push, with TimedOut
    // only ever meaning "empty right now", never "item lost".
    const PRODUCERS: usize = 4;
    const PER_PRODUCER: usize = 256;
    let queue = Arc::new(BoundedQueue::new(8));
    let drained = Arc::new(AtomicUsize::new(0));

    std::thread::scope(|scope| {
        for p in 0..PRODUCERS {
            let queue = Arc::clone(&queue);
            scope.spawn(move || {
                for i in 0..PER_PRODUCER {
                    queue.push(p * PER_PRODUCER + i).expect("queue stays open");
                }
            });
        }
        for _ in 0..3 {
            let queue = Arc::clone(&queue);
            let drained = Arc::clone(&drained);
            scope.spawn(move || loop {
                match queue.pop_timeout(Duration::ZERO) {
                    PopTimeout::Item(_) => {
                        drained.fetch_add(1, Ordering::Relaxed);
                    }
                    PopTimeout::TimedOut => {
                        if drained.load(Ordering::Relaxed) == PRODUCERS * PER_PRODUCER {
                            break;
                        }
                        std::thread::yield_now();
                    }
                    PopTimeout::Closed => break,
                }
            });
        }
    });
    assert_eq!(drained.load(Ordering::Relaxed), PRODUCERS * PER_PRODUCER);
}

#[test]
fn drain_after_close_preserves_fifo_order() {
    let queue = BoundedQueue::new(16);
    for i in 0..10 {
        queue.push(i).expect("open queue accepts");
    }
    queue.close();
    // New items are refused in every admission mode...
    assert_eq!(queue.push(99), Err(99));
    assert_eq!(queue.try_push(98), TryPush::Closed(98));
    // ...but the backlog drains completely, oldest first.
    for i in 0..10 {
        assert_eq!(queue.pop(), Some(i));
    }
    assert_eq!(queue.pop(), None);
    assert_eq!(queue.pop_timeout(Duration::ZERO), PopTimeout::Closed);
}

#[test]
fn try_push_reports_full_without_blocking_and_closed_after_close() {
    let queue = BoundedQueue::new(2);
    assert_eq!(queue.try_push(1), TryPush::Pushed);
    assert_eq!(queue.try_push(2), TryPush::Pushed);
    // At capacity: the item comes back immediately — this is the signal a
    // shedding admission path maps to `queue_full`.
    assert_eq!(queue.try_push(3), TryPush::Full(3));
    assert_eq!(queue.pop(), Some(1));
    assert_eq!(queue.try_push(3), TryPush::Pushed);
    queue.close();
    assert_eq!(queue.try_push(4), TryPush::Closed(4));
}

#[test]
fn seeded_multi_producer_stress_delivers_every_item_in_per_producer_order() {
    // 4 producers × 4 consumers through a deliberately tiny queue, so
    // both the not_full and not_empty waits are exercised constantly.
    // MPMC FIFO guarantees: nothing lost, nothing duplicated, and each
    // consumer observes every producer's items in production order. (A
    // single shared log could not check the order: two consumers may pop
    // items i and i+1 and then record them in the opposite order.)
    const PRODUCERS: u64 = 4;
    const PER_PRODUCER: u64 = 500;
    const CONSUMERS: usize = 4;
    let queue = Arc::new(BoundedQueue::new(3));
    let received: Vec<Mutex<Vec<u64>>> = (0..CONSUMERS).map(|_| Mutex::new(Vec::new())).collect();

    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let queue = Arc::clone(&queue);
                scope.spawn(move || {
                    // Mix producer pacing deterministically (seeded by the
                    // producer id) so interleavings vary across producers
                    // without depending on wall-clock randomness.
                    let mut state = 0x9e37_79b9u64 ^ p;
                    for i in 0..PER_PRODUCER {
                        queue.push((p << 32) | i).expect("queue stays open");
                        state ^= state << 13;
                        state ^= state >> 7;
                        if state.is_multiple_of(7) {
                            std::thread::yield_now();
                        }
                    }
                })
            })
            .collect();
        scope.spawn(|| {
            run_workers(CONSUMERS, |worker| {
                // Only this worker touches its log, so the lock never
                // contends and push order is pop order.
                let mut log = received[worker].lock().expect("consumer log");
                while let Some(v) = queue.pop() {
                    log.push(v);
                }
            });
        });
        for handle in handles {
            handle.join().expect("producer thread");
        }
        queue.close();
    });

    let mut all = Vec::new();
    for (consumer, log) in received.into_iter().enumerate() {
        let log = log.into_inner().expect("consumer log");
        let mut last_seen = vec![None::<u64>; PRODUCERS as usize];
        for v in &log {
            let (p, i) = ((v >> 32) as usize, v & 0xffff_ffff);
            if let Some(prev) = last_seen[p] {
                assert!(
                    i > prev,
                    "consumer {consumer} observed producer {p} items out of order"
                );
            }
            last_seen[p] = Some(i);
        }
        all.extend(log);
    }
    // The union is complete and duplicate-free.
    all.sort_unstable();
    let expected: Vec<u64> = (0..PRODUCERS)
        .flat_map(|p| (0..PER_PRODUCER).map(move |i| (p << 32) | i))
        .collect();
    assert_eq!(all, expected, "items lost or duplicated");
}

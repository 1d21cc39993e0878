//! The engine's one fan-out: a batch is an ordered list of blocks, every
//! participant runs `loop { claim the next block; run it }`, and the
//! calling thread is always the first participant.
//!
//! [`Fanout`] is the state the participants of one batch share: the
//! claim counter, and the tail the caller settles once its own claims
//! run dry — the labels of the blocks helpers ran, and a helper's panic.
//! The caller never waits for a helper to *arrive*; it waits only for
//! blocks a helper has already claimed. Helpers come from
//! `std::thread::scope` when the batch borrows its inputs and from the
//! [`Crew`] when the engine can hand over a [`Job`] that owns them; both
//! kinds of helper run [`Fanout::help`], so there is one claim loop, one
//! hand-back and one panic path.
//!
//! The [`Crew`] is one per process: `available_threads() − 1` threads,
//! started at the first offer and parked on a condvar between offers. A
//! helper never spins and never polls on a timer — on a box this small a
//! spinning helper takes the sibling hyperthread from the serve worker it
//! is waiting to help — so what a crew batch pays over a block inside a
//! long call is one futex wake-up. A crew busy with another engine's job
//! leaves an offer unanswered; the caller then runs every block itself
//! and withdraws the offer before it returns.

use rfx_core::Label;
use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, Once, PoisonError};

/// The blocks one helper ran, in the order it claimed them, with their
/// labels end to end. Helpers hand labels back by value — only the
/// calling thread holds the batch's output slice.
#[derive(Default)]
pub(crate) struct Helped {
    pub blocks: Vec<usize>,
    pub labels: Vec<Label>,
}

#[derive(Default)]
struct Tail {
    /// Helpers inside [`Fanout::help`]: counted in before their first
    /// claim and out after their hand-back.
    helping: usize,
    helped: Vec<Helped>,
    /// The first helper panic's payload, re-raised on the caller.
    panic: Option<Box<dyn Any + Send>>,
}

/// What the participants of one batch share.
pub(crate) struct Fanout {
    /// The next unclaimed block. `Relaxed`: the counter hands out
    /// indices and publishes nothing — labels and the helper count travel
    /// under `tail`'s lock, and a helper counts itself in under that lock
    /// before it claims, so by write coherence alone a caller whose claim
    /// came up empty cannot then miss a helper that holds a block.
    next: AtomicUsize,
    blocks: usize,
    tail: Mutex<Tail>,
    /// Signalled when the last helper inside [`Fanout::help`] leaves.
    settled: Condvar,
}

impl Fanout {
    pub(crate) fn new(blocks: usize) -> Self {
        Fanout {
            next: AtomicUsize::new(0),
            blocks,
            tail: Mutex::default(),
            settled: Condvar::new(),
        }
    }

    /// The next block nobody has claimed, `None` once they are all taken
    /// (or a helper has panicked and the batch is lost anyway).
    pub(crate) fn claim(&self) -> Option<usize> {
        let block = self.next.fetch_add(1, Ordering::Relaxed);
        (block < self.blocks).then_some(block)
    }

    fn tail(&self) -> MutexGuard<'_, Tail> {
        self.tail.lock().expect("the tail lock is never held across a block")
    }

    /// One helper's whole visit: `work` claims and runs blocks, recording
    /// them in the [`Helped`] it is given. A panic inside `work` is
    /// caught, ends the batch's claims and is kept for the caller, so the
    /// helper's thread survives and nobody waits on a block that will
    /// never finish.
    pub(crate) fn help(&self, work: impl FnOnce(&mut Helped)) {
        self.tail().helping += 1;
        let mut helped = Helped::default();
        let outcome = catch_unwind(AssertUnwindSafe(|| work(&mut helped)));
        let mut tail = self.tail();
        match outcome {
            Ok(()) if helped.blocks.is_empty() => {}
            Ok(()) => tail.helped.push(helped),
            Err(payload) => {
                self.next.store(self.blocks, Ordering::Relaxed);
                tail.panic.get_or_insert(payload);
            }
        }
        tail.helping -= 1;
        if tail.helping == 0 {
            self.settled.notify_all();
        }
    }

    /// The caller's tail, once its own claims have run dry: waits for
    /// the helpers still inside a block, then returns what helpers ran —
    /// or re-raises a helper's panic on this, the calling, thread.
    pub(crate) fn settle(&self) -> Vec<Helped> {
        let mut tail = self.tail();
        while tail.helping > 0 {
            tail = self.settled.wait(tail).expect("the tail lock is never held across a block");
        }
        if let Some(payload) = tail.panic.take() {
            drop(tail);
            resume_unwind(payload);
        }
        std::mem::take(&mut tail.helped)
    }
}

/// Work the crew can be offered: it owns everything it touches and
/// catches its own panics (an engine job is one [`Fanout::help`] visit).
pub(crate) trait Job: Send + Sync {
    fn run(&self);
}

struct Offer {
    id: u64,
    /// Helpers the offer still has room for.
    seats: usize,
    job: Arc<dyn Job>,
}

/// The process-wide helpers. See the module docs.
pub(crate) struct Crew {
    board: Mutex<Board>,
    /// Signalled once per offer; helpers park here.
    posted: Condvar,
}

struct Board {
    offers: VecDeque<Offer>,
    issued: u64,
}

static CREW: Crew = Crew {
    board: Mutex::new(Board { offers: VecDeque::new(), issued: 0 }),
    posted: Condvar::new(),
};

#[cfg(test)]
thread_local! {
    /// How often this thread reached for the crew: the tests' proof that
    /// a one-thread plan takes no lock and wakes nobody.
    static REACHED: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

#[cfg(test)]
pub(crate) fn times_this_thread_reached_for_the_crew() -> usize {
    REACHED.with(std::cell::Cell::get)
}

/// The crew, started on first use. Its threads live as long as the
/// process and are never joined: they park between offers, and what
/// they run catches its own panics.
pub(crate) fn crew() -> &'static Crew {
    static STARTED: Once = Once::new();
    #[cfg(test)]
    REACHED.with(|n| n.set(n.get() + 1));
    STARTED.call_once(|| {
        for i in 1..crate::engine::available_threads() {
            // A helper the OS refuses is a helper the callers do without.
            let _ =
                std::thread::Builder::new().name(format!("rfx-crew-{i}")).spawn(|| CREW.serve());
        }
    });
    &CREW
}

/// An offer on the board; dropping it withdraws whatever seats are left,
/// so the board never holds a job (and through it a model and a copy of
/// the rows) whose batch is already answered — on unwind too.
pub(crate) struct Offered {
    id: u64,
}

impl Drop for Offered {
    fn drop(&mut self) {
        let mut board = CREW.board();
        let withdrawn = board
            .offers
            .iter()
            .position(|offer| offer.id == self.id)
            .and_then(|at| board.offers.remove(at));
        // The job may be the last owner of a model: free it off the lock.
        drop(board);
        drop(withdrawn);
    }
}

impl Crew {
    /// Every update of the board is one push, pop or decrement, so it is
    /// valid at every step and a poisoned lock is still good to use.
    fn board(&self) -> MutexGuard<'_, Board> {
        self.board.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Posts `job` with room for `seats` runs of it, each taken by
    /// whichever helper is free next (the same one twice, if it finds
    /// the offer still open after its first visit: it then claims what is
    /// left, or nothing).
    pub(crate) fn offer(&self, seats: usize, job: Arc<dyn Job>) -> Offered {
        let mut board = self.board();
        board.issued += 1;
        let id = board.issued;
        board.offers.push_back(Offer { id, seats, job });
        drop(board);
        if seats == 1 {
            self.posted.notify_one();
        } else {
            self.posted.notify_all();
        }
        Offered { id }
    }

    fn serve(&self) {
        let mut board = self.board();
        loop {
            let Some(offer) = board.offers.front_mut() else {
                board = self.posted.wait(board).unwrap_or_else(PoisonError::into_inner);
                continue;
            };
            offer.seats -= 1;
            let job = Arc::clone(&offer.job);
            if offer.seats == 0 {
                board.offers.pop_front();
            }
            drop(board);
            job.run();
            // Let go of the job's model and rows before parking.
            drop(job);
            board = self.board();
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::mpsc;

    /// Occupies every helper of the crew until dropped.
    pub(crate) struct HeldCrew {
        release: Arc<(Mutex<bool>, Condvar)>,
        _offered: Offered,
    }

    struct Hold {
        arrived: mpsc::Sender<()>,
        release: Arc<(Mutex<bool>, Condvar)>,
    }

    impl Job for Hold {
        fn run(&self) {
            self.arrived.send(()).unwrap();
            let (released, changed) = &*self.release;
            let mut released = released.lock().unwrap();
            while !*released {
                released = changed.wait(released).unwrap();
            }
        }
    }

    /// Returns once every helper is inside the holding job.
    pub(crate) fn hold_the_crew() -> HeldCrew {
        let helpers = crate::engine::available_threads() - 1;
        let (arrived, arrivals) = mpsc::channel();
        let release = Arc::new((Mutex::new(false), Condvar::new()));
        let hold = Hold { arrived, release: Arc::clone(&release) };
        let offered = crew().offer(helpers, Arc::new(hold));
        for _ in 0..helpers {
            arrivals.recv().unwrap();
        }
        HeldCrew { release, _offered: offered }
    }

    impl Drop for HeldCrew {
        fn drop(&mut self) {
            *self.release.0.lock().unwrap() = true;
            self.release.1.notify_all();
        }
    }

    #[test]
    fn every_block_is_claimed_exactly_once_across_participants() {
        let fanout = Fanout::new(1000);
        let mine = std::thread::scope(|scope| {
            for _ in 0..3 {
                scope.spawn(|| {
                    fanout.help(|helped| {
                        while let Some(block) = fanout.claim() {
                            helped.blocks.push(block);
                            helped.labels.push(block as Label);
                        }
                    })
                });
            }
            let mut mine = Vec::new();
            while let Some(block) = fanout.claim() {
                mine.push(block);
            }
            mine
        });
        let mut seen = mine;
        for helped in fanout.settle() {
            assert_eq!(
                helped.labels,
                helped.blocks.iter().map(|&b| b as Label).collect::<Vec<_>>()
            );
            seen.extend(helped.blocks);
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..1000).collect::<Vec<_>>());
        assert_eq!(fanout.claim(), None);
    }

    #[test]
    fn a_helper_panic_ends_the_claims_and_is_raised_by_settle() {
        let fanout = Fanout::new(10);
        assert_eq!(fanout.claim(), Some(0));
        fanout.help(|_| panic!("block 1 broke"));
        assert_eq!(fanout.claim(), None, "a lost batch hands out no more blocks");
        let raised = catch_unwind(AssertUnwindSafe(|| fanout.settle())).err().unwrap();
        assert_eq!(raised.downcast_ref::<&str>(), Some(&"block 1 broke"));
    }

    struct Count(AtomicUsize, mpsc::SyncSender<()>);

    impl Job for Count {
        fn run(&self) {
            self.0.fetch_add(1, Ordering::SeqCst);
            self.1.send(()).unwrap();
        }
    }

    #[test]
    fn an_offer_is_run_once_per_seat_and_a_withdrawn_one_by_nobody() {
        let helpers = crate::engine::available_threads() - 1;
        let (ran, runs) = mpsc::sync_channel(helpers + 1);
        let job = Arc::new(Count(AtomicUsize::new(0), ran));
        let offered = crew().offer(helpers, Arc::clone(&job) as Arc<dyn Job>);
        for _ in 0..helpers {
            runs.recv().unwrap();
        }
        drop(offered);
        assert_eq!(job.0.load(Ordering::SeqCst), helpers);

        let held = hold_the_crew();
        let before = Arc::strong_count(&job);
        let offered = crew().offer(1, Arc::clone(&job) as Arc<dyn Job>);
        assert_eq!(Arc::strong_count(&job), before + 1, "the board holds the job");
        drop(offered);
        assert_eq!(Arc::strong_count(&job), before, "and lets go of it when withdrawn");
        drop(held);
        assert_eq!(job.0.load(Ordering::SeqCst), helpers, "nobody ran the withdrawn offer");
    }
}

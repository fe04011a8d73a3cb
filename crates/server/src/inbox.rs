//! The engine thread's inbox as a state machine, with no lock, no condvar
//! and no thread: every rule of the bounded hand-off from the session
//! threads (the producers) to the engine thread (the taker) lives here, and
//! each method returns the wakes it calls for as values.
//! [`crate::server::Shared`] is the shell around it: it locks, calls the
//! machine, unlocks, and only then performs the wakes, so that a woken
//! thread does not block at once on the lock its waker still holds. The
//! tests run this same machine under every interleaving of a few producers
//! and the taker.

use std::collections::VecDeque;

/// What [`Inbox::push`] did.
pub(crate) enum Push<M> {
    /// Queued, which took the depth to `depth` items; `wake_taker` when
    /// the taker waits for work.
    Queued { depth: usize, wake_taker: bool },
    /// No room: the message comes back, and its producer waits for a wake
    /// of room, then retries it.
    Wait(M),
    /// The taker has stopped: nothing more is queued.
    Closed,
}

/// What [`Inbox::take`] took; `wake_room` when producers wait and the take
/// made room.
pub(crate) enum Take<M> {
    /// A run of frames, put in the caller's `run`.
    Run { wake_room: bool },
    /// One message that is no frame.
    Msg { msg: M, wake_room: bool },
    /// Nothing is queued: the taker waits for a wake of work.
    Idle,
}

/// Every message for the taker, in order, each with the items it counts.
#[cfg_attr(test, derive(Clone, PartialEq, Eq, Hash))]
pub(crate) struct Inbox<M> {
    msgs: VecDeque<(M, usize)>,
    /// Items of the queued messages.
    items: usize,
    capacity: usize,
    /// Items a run stays within, unless its first frame is larger alone.
    batch: usize,
    /// Producers told to wait that have not retried yet.
    waiting: usize,
    /// Set while the taker waits for work: only then does a push wake it.
    idle: bool,
    /// Set once the taker has stopped.
    closed: bool,
}

impl<M> Inbox<M> {
    /// An empty inbox bounded at `capacity` items, taken in runs of up to
    /// `batch` items.
    pub(crate) fn new(capacity: usize, batch: usize) -> Inbox<M> {
        Inbox {
            msgs: VecDeque::new(),
            items: 0,
            capacity,
            batch,
            waiting: 0,
            idle: false,
            closed: false,
        }
    }

    /// Queues `msg`, which counts `n` items, if they fit: when `n` is 0,
    /// the queue is empty — so a message larger than the whole bound waits
    /// for an empty queue — or the depth with them is within the bound.
    pub(crate) fn push(&mut self, msg: M, n: usize) -> Push<M> {
        if self.closed {
            return Push::Closed;
        }
        if n > 0 && self.items > 0 && self.items + n > self.capacity {
            self.waiting += 1;
            return Push::Wait(msg);
        }
        self.msgs.push_back((msg, n));
        self.items += n;
        let (depth, wake_taker) = (self.items, self.idle);
        Push::Queued { depth, wake_taker }
    }

    /// Pushes again a message that had to [`Push::Wait`].
    pub(crate) fn retry(&mut self, msg: M, n: usize) -> Push<M> {
        self.waiting -= 1;
        self.push(msg, n)
    }

    /// Takes a run of whole frames into `run`, or the next other message:
    /// `frame` turns a message into a frame, which may join a run, or hands
    /// it back when it is none. The run ends before the first other
    /// message and within the batch limit, unless its first frame is larger
    /// on its own.
    pub(crate) fn take<F>(
        &mut self,
        run: &mut Vec<(F, usize)>,
        frame: fn(M) -> Result<F, M>,
    ) -> Take<M> {
        self.idle = self.msgs.is_empty();
        if self.idle {
            return Take::Idle;
        }
        let mut taken = 0;
        while let Some((msg, n)) = self.msgs.pop_front() {
            if !run.is_empty() && taken + n > self.batch {
                self.msgs.push_front((msg, n));
                break;
            }
            match frame(msg) {
                Ok(frame) => run.push((frame, n)),
                Err(msg) if run.is_empty() => {
                    let wake_room = self.took(n);
                    return Take::Msg { msg, wake_room };
                }
                Err(msg) => {
                    self.msgs.push_front((msg, n));
                    break;
                }
            }
            taken += n;
        }
        let wake_room = self.took(taken);
        Take::Run { wake_room }
    }

    /// Takes `n` items off the count: producers are woken only when some
    /// wait and there is new room.
    fn took(&mut self, n: usize) -> bool {
        self.items -= n;
        self.waiting > 0 && n > 0
    }

    /// The taker has stopped: what is queued is dropped, and every push,
    /// a waiting producer's retry too, is refused.
    pub(crate) fn close(&mut self) {
        (self.closed, self.items) = (true, 0);
        self.msgs.clear();
    }

    /// Items queued.
    pub(crate) fn depth(&self) -> usize {
        self.items
    }
}

/// The machine under every interleaving of two or three producers and the
/// taker, each running the shell's steps: a call of the machine under the
/// lock — blocking on its condvar in the same step when the machine says
/// `Wait` or `Idle`, as a condvar wait releases the lock — then, after the
/// unlock, one step for the wake the machine returned. A blocked thread
/// runs again only once a wake issued after it blocked has reached it:
/// `notify_all(room)` reaches every producer blocked on room, and
/// `notify_one(work)` the taker. The taker may close the inbox whenever it
/// runs, as the engine thread does when it stops.
#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// A message of the model: producer `from`'s `seq`th, a frame or not.
    #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
    struct Note {
        from: usize,
        seq: usize,
        frame: bool,
    }

    /// A frame of the model, or the message back.
    fn frame(note: Note) -> Result<Note, Note> {
        if note.frame {
            Ok(note)
        } else {
            Err(note)
        }
    }

    /// How many items a message counts: none, one, or more than the whole
    /// bound.
    #[derive(Clone, Copy, Debug)]
    enum Size {
        Zero,
        One,
        Over,
    }

    /// Where a model thread is.
    #[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
    enum At {
        /// About to lock and call the machine.
        Ready,
        /// Blocked on its condvar; `woken` once a wake issued since has
        /// reached it.
        Blocked { woken: bool },
        /// Unlocked, about to perform the wake the machine returned.
        Notify,
        /// A producer that pushed its whole script or was refused; the
        /// taker once it has closed the inbox.
        Done,
    }

    #[derive(Clone, PartialEq, Eq, Hash)]
    struct World {
        inbox: Inbox<Note>,
        /// Each producer: where it is, and the index of its next message.
        producers: Vec<(At, usize)>,
        taker: At,
        /// Whether the taker has closed the inbox.
        closed: bool,
        /// Per producer: how many of its messages were taken, dropped by
        /// the close or refused — each must be the next in push order.
        settled: Vec<usize>,
    }

    /// One thread's next step.
    #[derive(Clone, Copy, Debug)]
    enum Who {
        Producer(usize),
        Taker,
        /// The taker closes the inbox instead of taking.
        Close,
    }

    struct Case {
        capacity: usize,
        batch: usize,
        /// Each producer's messages: a frame or not, and its size.
        scripts: Vec<Vec<(bool, Size)>>,
    }

    impl Case {
        /// Producer `p`'s message `seq`, and the items it counts.
        fn message(&self, p: usize, seq: usize) -> (Note, usize) {
            let (frame, size) = self.scripts[p][seq];
            let n = match size {
                Size::Zero => 0,
                Size::One => 1,
                Size::Over => self.capacity + 1,
            };
            let from = p;
            (Note { from, seq, frame }, n)
        }

        /// Where producer `p` goes when `next` is the index of its next
        /// message.
        fn then(&self, p: usize, next: usize) -> At {
            if next == self.scripts[p].len() {
                At::Done
            } else {
                At::Ready
            }
        }

        fn start(&self) -> World {
            World {
                inbox: Inbox::new(self.capacity, self.batch),
                producers: vec![(At::Ready, 0); self.scripts.len()],
                taker: At::Ready,
                closed: false,
                settled: vec![0; self.scripts.len()],
            }
        }

        /// The steps that can run in `w`; none in a terminal state.
        fn moves(&self, w: &World) -> Vec<Who> {
            let runs = |at| matches!(at, At::Ready | At::Notify | At::Blocked { woken: true });
            let mut moves: Vec<Who> = (0..w.producers.len())
                .filter(|p| runs(w.producers[*p].0))
                .map(Who::Producer)
                .collect();
            if runs(w.taker) {
                moves.push(Who::Taker);
            }
            if w.taker == At::Ready {
                moves.push(Who::Close);
            }
            moves
        }

        /// Runs `who`'s next step on a copy of `w`, checking what the
        /// machine returns; `log` gets a line that says what happened.
        fn step(&self, w: &World, who: Who, log: &mut Vec<String>) -> Result<World, String> {
            let mut w = w.clone();
            match who {
                Who::Producer(p) => self.produce(&mut w, p, log)?,
                Who::Taker if w.taker == At::Notify => {
                    log.push("taker: notify_all(room)".into());
                    for (at, _) in &mut w.producers {
                        if let At::Blocked { .. } = at {
                            *at = At::Blocked { woken: true };
                        }
                    }
                    w.taker = if w.closed { At::Done } else { At::Ready };
                }
                Who::Taker => self.take(&mut w, log)?,
                Who::Close => {
                    let dropped: Vec<Note> = w.inbox.msgs.iter().map(|(m, _)| *m).collect();
                    for note in dropped {
                        settle(&mut w, note)?;
                    }
                    w.inbox.close();
                    log.push("taker: close".into());
                    (w.closed, w.taker) = (true, At::Notify);
                }
            }
            self.invariants(&w)?;
            Ok(w)
        }

        fn produce(&self, w: &mut World, p: usize, log: &mut Vec<String>) -> Result<(), String> {
            let (at, seq) = w.producers[p];
            if at == At::Notify {
                log.push(format!("P{p}: notify_one(work)"));
                if let At::Blocked { .. } = w.taker {
                    w.taker = At::Blocked { woken: true };
                }
                w.producers[p].0 = self.then(p, seq);
                return Ok(());
            }
            let (note, n) = self.message(p, seq);
            let pushed = if at == At::Ready {
                w.inbox.push(note, n)
            } else {
                w.inbox.retry(note, n)
            };
            let call = if at == At::Ready { "push" } else { "retry" };
            let what = if note.frame { "frame" } else { "message" };
            let said = match &pushed {
                Push::Queued { depth, wake_taker } => {
                    format!("Queued {{ depth: {depth}, wake_taker: {wake_taker} }}")
                }
                Push::Wait(_) => "Wait".into(),
                Push::Closed => "Closed".into(),
            };
            log.push(format!("P{p}: {call} #{seq} ({what}, n = {n}) -> {said}"));
            match pushed {
                _ if w.closed && !matches!(pushed, Push::Closed) => {
                    return Err(format!("P{p}: a push after the close was not refused"));
                }
                Push::Queued { depth, wake_taker } => {
                    if depth != w.inbox.items {
                        return Err(format!("P{p}: depth {depth}, {} queued", w.inbox.items));
                    }
                    let then = if wake_taker {
                        At::Notify
                    } else {
                        self.then(p, seq + 1)
                    };
                    w.producers[p] = (then, seq + 1);
                }
                Push::Wait(back) if back == note => w.producers[p].0 = At::Blocked { woken: false },
                Push::Wait(_) => return Err(format!("P{p}: Wait handed back another message")),
                Push::Closed if !w.closed => {
                    return Err(format!("P{p}: refused before the close"));
                }
                Push::Closed => {
                    settle(w, note)?;
                    w.producers[p] = (At::Done, seq + 1);
                }
            }
            Ok(())
        }

        fn take(&self, w: &mut World, log: &mut Vec<String>) -> Result<(), String> {
            let mut run = Vec::new();
            let took = w.inbox.take(&mut run, frame);
            let notes: Vec<String> = run
                .iter()
                .map(|(m, n)| format!("P{}#{} ({n})", m.from, m.seq))
                .collect();
            let (said, wake) = match &took {
                Take::Run { wake_room } => (format!("Run [{}]", notes.join(", ")), *wake_room),
                Take::Msg { msg, wake_room } => {
                    (format!("Msg P{}#{}", msg.from, msg.seq), *wake_room)
                }
                Take::Idle => ("Idle".into(), false),
            };
            log.push(format!("taker: take -> {said}, wake_room: {wake}"));
            match took {
                Take::Idle if !run.is_empty() || !w.inbox.msgs.is_empty() => {
                    return Err("the taker went idle over a non-empty queue".into());
                }
                Take::Idle => {
                    w.taker = At::Blocked { woken: false };
                    return Ok(());
                }
                Take::Run { .. } => {
                    let items: usize = run.iter().map(|(_, n)| n).sum();
                    if run.is_empty() || run.len() > 1 && items > self.batch {
                        return Err(format!("a run of {} frames, {items} items", run.len()));
                    }
                    if let Some((next, n)) = w.inbox.msgs.front() {
                        if next.frame && items + n <= self.batch {
                            return Err("a run ended before a frame that fits".into());
                        }
                    }
                    for (note, _) in run {
                        if !note.frame {
                            return Err("a message that is no frame in a run".into());
                        }
                        settle(w, note)?;
                    }
                }
                Take::Msg { msg, .. } if msg.frame || !run.is_empty() => {
                    return Err("a frame taken alone, or a message beside a run".into());
                }
                Take::Msg { msg, .. } => settle(w, msg)?,
            }
            w.taker = if wake { At::Notify } else { At::Ready };
            Ok(())
        }

        /// (ii) the bound, (v) the waiter count, and the item count.
        fn invariants(&self, w: &World) -> Result<(), String> {
            let q = &w.inbox;
            let items: usize = q.msgs.iter().map(|(_, n)| n).sum();
            if items != q.items {
                return Err(format!("{} items counted, {items} queued", q.items));
            }
            let counted = q.msgs.iter().filter(|(_, n)| *n > 0).count();
            if q.items > self.capacity && counted > 1 {
                return Err(format!(
                    "{} items queued past the bound {}",
                    q.items, self.capacity
                ));
            }
            let blocked = w
                .producers
                .iter()
                .filter(|(at, _)| matches!(at, At::Blocked { .. }));
            if q.waiting != blocked.clone().count() {
                return Err(format!(
                    "the machine counts {} waiting, the model has {} blocked on room",
                    q.waiting,
                    blocked.count()
                ));
            }
            Ok(())
        }

        /// (i) and (iii) where nothing can run any more.
        fn terminal(&self, w: &World) -> Result<(), String> {
            for (p, (at, seq)) in w.producers.iter().enumerate() {
                if *at == At::Done {
                    if w.settled[p] != *seq {
                        return Err(format!("P{p}: {seq} pushed, {} came out", w.settled[p]));
                    }
                    continue;
                }
                let (note, n) = self.message(p, *seq);
                if !matches!(w.inbox.clone().retry(note, n), Push::Wait(_)) {
                    return Err(format!("P{p} is blocked for good, yet could proceed"));
                }
            }
            if !w.inbox.msgs.is_empty() {
                return Err("the taker is blocked for good over a non-empty queue".into());
            }
            Ok(())
        }

        /// Every state reachable from the start, each once; the first
        /// broken check panics with the schedule that led to it.
        fn check(&self) -> usize {
            let start = self.start();
            let mut seen = HashSet::from([start.clone()]);
            // (state, its parent's index, the step from the parent)
            let mut states = vec![(start, usize::MAX, Who::Taker)];
            let mut at = 0;
            while at < states.len() {
                let moves = self.moves(&states[at].0);
                let end = moves.is_empty().then(|| self.terminal(&states[at].0));
                if let Some(Err(e)) = end {
                    panic!("{}", self.schedule(&states, at, None, &e));
                }
                for who in moves {
                    match self.step(&states[at].0, who, &mut Vec::new()) {
                        Ok(next) if seen.insert(next.clone()) => states.push((next, at, who)),
                        Ok(_) => {}
                        Err(e) => panic!("{}", self.schedule(&states, at, Some(who), &e)),
                    }
                }
                at += 1;
            }
            states.len()
        }

        /// The steps from the start to state `at`, then `last`, replayed
        /// with what the machine said at each.
        fn schedule(
            &self,
            states: &[(World, usize, Who)],
            at: usize,
            last: Option<Who>,
            e: &str,
        ) -> String {
            let mut path: Vec<Who> = last.into_iter().collect();
            let mut i = at;
            while states[i].1 != usize::MAX {
                path.push(states[i].2);
                i = states[i].1;
            }
            let mut w = self.start();
            let mut log = Vec::new();
            for who in path.into_iter().rev() {
                match self.step(&w, who, &mut log) {
                    Ok(next) => w = next,
                    Err(_) => break,
                }
            }
            format!(
                "capacity {}, batch {}, scripts {:?}: {e}\nschedule:\n  {}",
                self.capacity,
                self.batch,
                self.scripts,
                log.join("\n  ")
            )
        }
    }

    /// Producer `note.from`'s next message has come out: taken, dropped by
    /// the close, or refused. (iii) it is the next in its push order.
    fn settle(w: &mut World, note: Note) -> Result<(), String> {
        let settled = &mut w.settled[note.from];
        if note.seq != *settled {
            return Err(format!(
                "P{}#{} came out where #{} was due",
                note.from, note.seq, settled
            ));
        }
        *settled += 1;
        Ok(())
    }

    #[test]
    fn every_interleaving_of_the_inbox_keeps_its_rules() {
        use Size::*;
        let f = |size| (true, size);
        let m = |size| (false, size);
        let scripts: [Vec<Vec<(bool, Size)>>; 2] = [
            vec![vec![f(One), f(Over), m(Zero)], vec![f(One), m(One), f(One)]],
            vec![
                vec![f(One), f(One)],
                vec![f(Over), m(One)],
                vec![m(Zero), f(One)],
            ],
        ];
        let mut states = 0;
        for capacity in 1..=3 {
            for scripts in &scripts {
                let case = Case {
                    capacity,
                    batch: 2,
                    scripts: scripts.clone(),
                };
                states += case.check();
            }
        }
        println!("{states} states");
    }
}

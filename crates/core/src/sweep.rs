//! Across-run parallelism: independent simulations fanned over threads.

use std::sync::Mutex;

/// Fans independent cells — (scheme × load × seed) tuples, or anything else
/// `Send` — over scoped worker threads. Workers claim the next unclaimed
/// cell from a shared cursor, and results come back in cell order whichever
/// worker finished first. A cell's output depends only on its own inputs,
/// never on thread identity, job count or wall clock, so every job count
/// gives the same per-cell results (`uno-bench`'s `sweep_determinism` test
/// holds the runner to this).
///
/// The simulator itself stays single-threaded; all parallelism lives here,
/// across independent runs.
#[derive(Debug)]
pub struct SweepRunner {
    jobs: usize,
}

impl SweepRunner {
    /// Runner with `jobs` worker threads (0 = one per available core).
    pub fn new(jobs: usize) -> Self {
        let jobs = match jobs {
            0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
            n => n,
        };
        SweepRunner { jobs }
    }

    /// Worker threads this runner fans out across.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// Run `f(index, cell)` for every cell and collect the results in cell
    /// order. With one worker or one cell, everything runs on the caller's
    /// thread. A panic in `f` reaches the caller once every worker stopped.
    pub fn run<C, T, F>(&self, cells: Vec<C>, f: F) -> Vec<T>
    where
        C: Send,
        T: Send,
        F: Fn(usize, C) -> T + Sync,
    {
        let workers = self.jobs.min(cells.len());
        if workers <= 1 {
            return cells
                .into_iter()
                .enumerate()
                .map(|(i, c)| f(i, c))
                .collect();
        }
        // The cursor is the cell iterator itself; its lock is held only
        // while a worker takes the next cell out of it.
        let cursor = Mutex::new(cells.into_iter().enumerate());
        let work = || {
            let mut ran = Vec::new();
            loop {
                let next = cursor
                    .lock()
                    .expect("no worker panics holding the cursor")
                    .next();
                let Some((i, cell)) = next else { return ran };
                ran.push((i, f(i, cell)));
            }
        };
        let mut done: Vec<(usize, T)> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers).map(|_| s.spawn(work)).collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e)))
                .collect()
        });
        done.sort_unstable_by_key(|&(i, _)| i);
        done.into_iter().map(|(_, t)| t).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Duration;

    #[test]
    fn sweep_runner_orders_results_and_reports_jobs() {
        let cells: Vec<(u64, u64)> = (0..12).map(|i| (i, i * i)).collect();
        let want: Vec<(usize, u64)> = cells.iter().map(|&(a, b)| (a as usize, a + b)).collect();
        // One worker, three, and more workers than cells.
        for jobs in [1, 3, 20] {
            let runner = SweepRunner::new(jobs);
            assert_eq!(runner.jobs(), jobs);
            assert_eq!(runner.run(cells.clone(), |idx, (a, b)| (idx, a + b)), want);
        }
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        assert_eq!(SweepRunner::new(0).jobs(), cores);
        let caller = std::thread::current().id();
        let ran_on = SweepRunner::new(3).run(vec![()], |_, ()| std::thread::current().id());
        assert_eq!(
            ran_on,
            vec![caller],
            "a single cell runs on the caller's thread"
        );
    }

    #[test]
    fn results_keep_cell_order_when_the_first_cell_finishes_last() {
        // Cell 0 returns only after cells 1 and 2 have finished, so with
        // three workers the cells complete out of order.
        let (finished, wait) = mpsc::channel();
        let wait = Mutex::new(wait);
        let out = SweepRunner::new(3).run(vec![0, 1, 2], |_, cell| {
            if cell == 0 {
                let wait = wait.lock().expect("only cell 0 locks the receiver");
                for _ in 0..2 {
                    wait.recv_timeout(Duration::from_secs(60))
                        .expect("cells 1 and 2 run on other workers while cell 0 waits");
                }
            } else {
                finished.send(()).expect("cell 0 holds the receiver");
            }
            cell
        });
        assert_eq!(out, vec![0, 1, 2]);
    }
}

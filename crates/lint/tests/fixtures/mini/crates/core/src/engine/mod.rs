//! Fixture engine module: seeded L002 and L003 violations (direct, two-link
//! chain, under a poison-recovered mutex guard), plus the negatives (allowed
//! panic, test-code unwrap, guard dropped before the expensive call).

/// Seeds L002: a bare unwrap on the no-panic surface.
pub fn handle(input: Option<u32>) -> u32 {
    input.unwrap()
}

/// A justified allow directive suppresses the panic below.
pub fn guarded() -> u32 {
    // lint: allow(L002) fixture: this panic is the feature under test
    panic!("boom")
}

/// A reasonless allow directive does not count: still a finding.
pub fn reasonless(input: Option<u32>) -> u32 {
    // lint: allow(L002)
    input.expect("present")
}

fn solve_thing(x: u32) -> u32 {
    x
}

/// Seeds L003: the expensive call runs while the write guard is live.
pub fn compute_under_lock(lock: &std::sync::RwLock<u32>) -> u32 {
    let g = lock.write();
    let v = solve_thing(3);
    drop(g);
    v
}

/// Clean: the guard is dropped before the expensive call.
pub fn compute_after_drop(lock: &std::sync::RwLock<u32>) -> u32 {
    let g = lock.write();
    drop(g);
    solve_thing(4)
}

/// Clean: `panic!` inside a string literal is data, not a panic.
pub fn describes_panics() -> &'static str {
    "never calls panic!(...) or .unwrap() at runtime"
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_code_may_unwrap() {
        let v: Option<u32> = Some(1);
        assert_eq!(v.unwrap(), 1);
    }
}

/// Seeds L008: reaches `projtile_kern::inner`'s assert two calls away.
pub fn surface_entry(n: u64) -> u64 {
    projtile_kern::risky(n)
}

/// Clean: every chain through `vetted` is cut by the allow on its `fn` line.
pub fn surface_vetted(n: u64) -> u64 {
    projtile_kern::vetted(n)
}

/// Seeds L008: bare indexing on the surface itself (single-link chain).
pub fn first_item(xs: &[u64]) -> u64 {
    xs[0]
}

/// Clean: full-range slicing cannot panic.
pub fn whole(xs: &[u64]) -> &[u64] {
    &xs[..]
}

fn grab_write(lock: &std::sync::RwLock<u32>) -> u32 {
    let w = lock.write();
    *w
}

/// Seeds L009: `grab_write` acquires a second lock while the read guard is
/// live (a transitive read→write upgrade).
pub fn upgrade_under_read(lock: &std::sync::RwLock<u32>) -> u32 {
    let g = lock.read();
    let v = grab_write(lock);
    drop(g);
    v
}

/// Seeds L009: an in-place read→write upgrade, flagged explicitly.
pub fn upgrade_in_place(lock: &std::sync::RwLock<u32>) -> u32 {
    let g = lock.read();
    let w = lock.write();
    drop(w);
    drop(g);
    0
}

/// Seeds L009: blocking I/O while the write guard is live.
pub fn io_under_lock(lock: &std::sync::RwLock<u32>) -> u32 {
    let g = lock.write();
    let _ = std::fs::write("/tmp/fixture", "x");
    *g
}

/// Clean: the guard is dropped before the lock-taking helper runs.
pub fn upgrade_after_drop(lock: &std::sync::RwLock<u32>) -> u32 {
    let g = lock.read();
    drop(g);
    grab_write(lock)
}

/// Clean: the chained read guard is a temporary; `n` holds the result and
/// the guard dies at the statement's end, before the write.
pub fn peek_then_write(lock: &std::sync::RwLock<u32>) -> u32 {
    let n = lock.read().checked_add(1).unwrap_or(0);
    let w = lock.write();
    drop(w);
    n
}

/// Seeds L010: the allow below excuses nothing any more (stale).
pub fn tidy() -> u32 {
    // lint: allow(L002) fixture: stale — the unwrap this excused is gone
    7
}

/// Seeds L010: the allow names a rule id that is not in the catalog.
pub fn mislabeled() -> u32 {
    // lint: allow(L999) fixture: unknown rule id
    9
}

fn refresh(x: u32) -> u32 {
    recompute(x)
}

fn recompute(x: u32) -> u32 {
    solve_thing(x)
}

/// Seeds L003 through a two-link chain: `refresh` reaches `solve_thing` via
/// `recompute` while the write guard is live.
pub fn refresh_under_lock(lock: &std::sync::RwLock<u32>) -> u32 {
    let mut g = lock.write();
    *g = refresh(*g);
    *g
}

/// Seeds L003: poison recovery hands the mutex guard itself to `g`, so the
/// expensive call runs while it is live.
pub fn compute_under_mutex(m: &std::sync::Mutex<u32>) -> u32 {
    let g = m.lock().unwrap_or_else(|e| e.into_inner());
    solve_thing(*g)
}

fn tally(n: &u32) -> u32 {
    *n
}

/// Clean: a guard acquired inside a call's argument list is a temporary of
/// the `let` statement, dead before `grab_write` takes the lock.
pub fn tally_then_write(lock: &std::sync::RwLock<u32>) -> u32 {
    let n = tally(&lock.read());
    n + grab_write(lock)
}

fn reload(lock: &std::sync::RwLock<u32>) -> u32 {
    let w = lock.write();
    *w
}

/// Clean: `reload` here is the local the first `let` binds, not a
/// reference to the lock-taking fn of that name.
pub fn local_named_like_a_fn(lock: &std::sync::RwLock<u32>) -> u32 {
    let reload = 2;
    let g = lock.read();
    let v = *g + reload;
    drop(g);
    v
}

/// Seeds L009: a guard passed by value may move into the call's result, so
/// `g` holds the read guard while `grab_write` takes the lock.
pub fn wrap_then_write(lock: &std::sync::RwLock<u32>) -> u32 {
    let g = Some(lock.read());
    let v = grab_write(lock);
    drop(g);
    v
}

/// Seeds L009: the local `reload` is scoped to the first block, so the
/// second `reload` is the lock-taking fn, referenced under a read guard.
pub fn fn_named_like_an_inner_local(lock: &std::sync::RwLock<u32>) -> u32 {
    let n = {
        let reload = 2;
        reload + 1
    };
    let g = lock.read();
    let f: fn(&std::sync::RwLock<u32>) -> u32 = reload;
    drop(g);
    n + f(lock)
}

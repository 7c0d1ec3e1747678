pub fn apply_batch(xs: &[u32]) -> u32 {
    // lint: allow(panic-reachability)
    let head = *xs.first().unwrap();
    // lint: allow(made-up-rule): a justification that is long enough
    let tail = *xs.last().unwrap();
    head + tail + pick(xs)
}
fn pick(xs: &[u32]) -> u32 {
    xs.iter().copied().max().expect("non-empty")
}

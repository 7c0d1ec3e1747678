pub fn apply_batch(xs: &[u32]) -> u32 {
    // lint: allow(panic-reachability): caller checks the batch is non-empty
    let head = *xs.first().unwrap();
    head + *xs.last().expect("non-empty") // lint: allow(panic-reachability): same non-empty precondition as the head
}

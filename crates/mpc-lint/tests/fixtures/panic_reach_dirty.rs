pub fn apply_batch(xs: &[u32]) -> u32 {
    stage(xs)
}
fn stage(xs: &[u32]) -> u32 {
    pick(xs)
}
fn pick(xs: &[u32]) -> u32 {
    *xs.first().unwrap()
}
pub fn subtract_copy_from(dst: &mut [u64], src: &[u64]) -> usize {
    let staged = src.to_vec();
    assert_eq!(dst.len(), staged.len());
    staged.len()
}

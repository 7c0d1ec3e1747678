pub fn apply_batch(xs: &[u32]) -> Result<u32, ()> {
    Ok(stage(xs))
}
fn stage(xs: &[u32]) -> u32 {
    pick(xs)
}
fn pick(xs: &[u32]) -> u32 {
    xs.iter().copied().sum()
}
pub fn subtract_copy_from(dst: &mut [u64], src: &[u64]) -> usize {
    debug_assert!(dst.len() == src.len());
    for (d, s) in dst.iter_mut().zip(src) {
        *d = d.wrapping_sub(*s);
    }
    src.len()
}

use std::collections::HashMap;
use std::time::Instant;

pub fn racy() -> u64 {
    let t = Instant::now();
    let m: HashMap<u32, u32> = HashMap::new();
    std::thread::spawn(|| {});
    println!("done");
    let _knob = std::env::var("HOST_KNOB");
    m.len() as u64 + t.elapsed().as_nanos() as u64
}

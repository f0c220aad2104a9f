//! The frozen, seeded input generator.
//!
//! Everything the benchmark feeds the appliance comes from here and from
//! nothing else: documents, the text-query vocabulary by frequency class,
//! the mixed-format stream and the user-byte accounting. It deliberately
//! shares no code with `impliance_bench::Corpus` or `vendor/rand`, which
//! live outside the benchmark's `paths` and may change: a later change to
//! either must not move the benchmark's inputs. The same seed gives the
//! same bytes; the appliance only ever sees the generated inputs, never
//! the seed.

use impliance_core::{Error, Impliance};
use impliance_docmodel::{DocId, RelationalSchema, Value};

/// SplitMix64: small, fast, and fully specified here, so the inputs are
/// frozen with the benchmark.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for one purpose: `stream` separates the collections, so
    /// the claims of a seed do not depend on how many orders were drawn.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`), by multiply-shift.
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }

    /// Uniform in `lo..hi`.
    pub fn range(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below((hi - lo) as u64) as i64
    }

    pub fn pick<'a, T: ?Sized>(&mut self, items: &[&'a T]) -> &'a T {
        items[self.below(items.len() as u64) as usize]
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

// The person, place and organization lexicons are the ones the entity
// annotator recognizes (copied, not imported, to stay frozen).
pub const FIRST_NAMES: &[&str] = &[
    "Ada", "Alan", "Alice", "Barbara", "Bob", "Carlos", "Carol", "Charles", "Claude", "David",
    "Diana", "Edgar", "Elena", "Emma", "Frank", "Grace", "Hector", "Irene", "James", "Jane",
    "John", "Karen", "Laura", "Linda", "Maria", "Mark", "Mary", "Michael", "Nancy", "Olivia",
    "Patricia", "Paul", "Peter", "Rachel", "Robert", "Sarah", "Susan", "Thomas", "Victor", "Wendy",
];
pub const SURNAMES: &[&str] = &[
    "Anderson", "Baker", "Chen", "Davis", "Engel", "Fischer", "Garcia", "Hopper", "Ishikawa",
    "Johnson", "Kim", "Lovelace", "Miller", "Nguyen", "Olsen", "Patel", "Quinn", "Rivera", "Smith",
    "Turing",
];
pub const CITIES: &[&str] = &[
    "Atlanta",
    "Austin",
    "Boston",
    "California",
    "Chicago",
    "Dallas",
    "Denver",
    "Houston",
    "Miami",
    "Nevada",
    "Oregon",
    "Phoenix",
    "Portland",
    "Seattle",
    "Texas",
    "Tucson",
];
pub const MAKES: &[&str] = &["Volvo", "Saab", "Tesla", "Ford"];
/// One per claim: each is a 1-in-6 term of the claims (the `mid` class).
pub const PARTS: &[&str] = &[
    "bumper",
    "hood",
    "windshield",
    "door",
    "mirror",
    "taillight",
];
/// One per claim: 1-in-3 terms.
pub const ACTIONS: &[&str] = &["repair", "replacement", "inspection"];
/// Terms every claim's notes carry (the `freq` class).
pub const FREQ_TERMS: &[&str] = &[
    "damage", "claim", "estimate", "covers", "parts", "labor", "filed",
];
/// One per claim: the first word of each is a 1-in-12 term (the `low` class).
pub const DETAILS: &[&str] = &[
    "Adjuster noted rust near the frame",
    "Towing invoice attached to the file",
    "Rental vehicle approved for five days",
    "Photos show hail dents across the roof",
    "Police report pending from the county",
    "Witness statement recorded by phone",
    "Deductible waived under the policy",
    "Garage quoted two weeks of work",
    "Airbag sensor flagged during diagnostics",
    "Paint mismatch reported after delivery",
    "Salvage auction scheduled next month",
    "Subrogation letter mailed to the carrier",
];
pub const PRODUCTS: &[&str] = &["BX", "AX", "CW", "DZ", "MK"];
pub const PARTNERS: &[&str] = &[
    "Acme Widgets Inc.",
    "Globex Corp",
    "Initech LLC",
    "Umbrella Ltd",
    "Hooli Co.",
];
pub const TOPICS: &[&str] = &["contract", "invoice", "renewal", "audit"];
const CALL_PHRASES: &[&str] = &[
    "the unit arrived broken and I am very disappointed",
    "this is my third complaint about the same problem",
    "the part was late and the packaging was terrible",
    "I want a refund because the device is defective",
    "the replacement works great and I am very happy",
    "excellent service, thanks for the quick turnaround",
    "the technician was helpful and I am pleased",
    "please confirm the shipping address on file",
    "I am calling to check the status of my case",
    "the manual mentions a firmware update procedure",
];
const TIERS: &[&str] = &["gold", "silver", "bronze"];

/// Claims arrive in periods of this many; inside each period one burst of
/// large losses (a hail storm) holds every amount of 4,000 and above, and
/// every eighth claim of a burst is one of the very largest (4,900 and
/// up). Because amounts cluster in arrival order, most sealed segments
/// hold no amount near the top and a zone map can skip them. Which claims
/// are in a burst depends on their position only, never on the seed: the
/// seed varies the values, not how much work a query has to do.
const CLAIM_PERIOD: u64 = 4_000;
const BURST_START: u64 = 1_000;
const BURST_LEN: u64 = 400;
const TOP_EVERY: u64 = 8;

/// Position of the `seq`-th claim inside its period's burst, if it is in it.
fn burst_slot(seq: u64) -> Option<u64> {
    (seq % CLAIM_PERIOD)
        .checked_sub(BURST_START)
        .filter(|slot| *slot < BURST_LEN)
}

#[derive(Debug, Clone, PartialEq)]
pub struct Claim {
    pub claim_no: i64,
    pub claimant: String,
    pub city: &'static str,
    pub amount: i64,
    pub make: &'static str,
    pub year: i64,
    pub part: &'static str,
    pub action: &'static str,
    pub detail: &'static str,
    /// The JSON text handed to the appliance, rendered when the claim is
    /// drawn so that formatting it is never inside a timed ingest call.
    json: String,
}

impl Claim {
    pub fn notes(&self) -> String {
        format!(
            "Damage claim for the {} {} estimate covers parts and labor. {} filed in {}. {}.",
            self.part, self.action, self.claimant, self.city, self.detail
        )
    }

    pub fn json(&self) -> &str {
        &self.json
    }

    fn render(&self) -> String {
        format!(
            r#"{{"claim_no": {}, "claimant": "{}", "city": "{}", "amount": {}, "vehicle": {{"make": "{}", "year": {}}}, "notes": "{}"}}"#,
            self.claim_no,
            self.claimant,
            self.city,
            self.amount,
            self.make,
            self.year,
            self.notes()
        )
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Order {
    pub order_id: i64,
    pub cust: u32,
    pub sku: String,
    pub qty: i64,
    /// Whole cents, so sums are exact whatever order workers add them in.
    pub total: i64,
    json: String,
}

impl Order {
    pub fn json(&self) -> &str {
        &self.json
    }

    fn render(&self) -> String {
        format!(
            r#"{{"order_id": {}, "cust": "C-{}", "sku": "{}", "qty": {}, "total": {}}}"#,
            self.order_id, self.cust, self.sku, self.qty, self.total
        )
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Customer {
    pub code: u32,
    pub name: String,
    pub city: &'static str,
    pub tier: &'static str,
}

impl Customer {
    pub fn code_str(&self) -> String {
        format!("C-{}", self.code)
    }

    fn values(&self) -> Vec<Value> {
        vec![
            Value::Str(self.code_str()),
            Value::Str(self.name.clone()),
            Value::Str(self.city.to_string()),
            Value::Str(self.tier.to_string()),
        ]
    }
}

pub fn customer_schema() -> RelationalSchema {
    RelationalSchema::new("customers", &["code", "name", "city", "tier"])
}

/// One input document, in the format it is handed to the appliance in.
#[derive(Debug, Clone, PartialEq)]
pub enum Doc {
    Claim(Claim),
    Order(Order),
    Customer(Customer),
    Call(String),
    Mail(String),
}

/// The five input kinds; also the index into per-kind tallies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Claim = 0,
    Order = 1,
    Customer = 2,
    Call = 3,
    Mail = 4,
}

pub const KINDS: [Kind; 5] = [
    Kind::Claim,
    Kind::Order,
    Kind::Customer,
    Kind::Call,
    Kind::Mail,
];

impl Kind {
    pub fn collection(self) -> &'static str {
        match self {
            Kind::Claim => "claims",
            Kind::Order => "orders",
            Kind::Customer => "customers",
            Kind::Call => "calls",
            Kind::Mail => "mail",
        }
    }

    /// The span an ingest call of this kind is recorded under, named
    /// after the entry point it goes through.
    pub fn ingest_span(self) -> &'static str {
        match self {
            Kind::Claim | Kind::Order => "core.ingest.json",
            Kind::Customer => "core.ingest.row",
            Kind::Call => "core.ingest.text",
            Kind::Mail => "core.ingest.email",
        }
    }
}

impl Doc {
    pub fn kind(&self) -> Kind {
        match self {
            Doc::Claim(_) => Kind::Claim,
            Doc::Order(_) => Kind::Order,
            Doc::Customer(_) => Kind::Customer,
            Doc::Call(_) => Kind::Call,
            Doc::Mail(_) => Kind::Mail,
        }
    }

    /// Bytes the user hands over: the text as sent, or for a relational
    /// row the comma-separated line it would be.
    pub fn user_bytes(&self) -> usize {
        match self {
            Doc::Claim(c) => c.json().len(),
            Doc::Order(o) => o.json().len(),
            Doc::Customer(c) => c.code_str().len() + c.name.len() + c.city.len() + c.tier.len() + 4,
            Doc::Call(t) | Doc::Mail(t) => t.len(),
        }
    }

    /// Hand the document to the appliance through the public entry point
    /// of its format.
    pub fn ingest(&self, imp: &Impliance, schema: &RelationalSchema) -> Result<DocId, Error> {
        match self {
            Doc::Claim(c) => imp.ingest_json("claims", c.json()),
            Doc::Order(o) => imp.ingest_json("orders", o.json()),
            Doc::Customer(c) => imp.ingest_row(schema, c.values()),
            Doc::Call(t) => imp.ingest_text("calls", t),
            Doc::Mail(t) => imp.ingest_email("mail", t),
        }
    }
}

/// Draws documents of each kind from per-kind streams of one seed.
pub struct Generator {
    claims: Rng,
    orders: Rng,
    customers: Rng,
    calls: Rng,
    mail: Rng,
    next_claim: u64,
    next_order: u64,
    next_customer: u32,
    /// Orders reference customers `0..customer_pool`.
    customer_pool: u32,
}

fn person(rng: &mut Rng) -> String {
    format!("{} {}", rng.pick(FIRST_NAMES), rng.pick(SURNAMES))
}

fn product_code(rng: &mut Rng) -> String {
    format!("{}-{}", rng.pick(PRODUCTS), rng.range(100, 9999))
}

impl Generator {
    pub fn new(seed: u64, customer_pool: u32) -> Generator {
        Generator {
            claims: Rng::new(seed, 1),
            orders: Rng::new(seed, 2),
            customers: Rng::new(seed, 3),
            calls: Rng::new(seed, 4),
            mail: Rng::new(seed, 5),
            next_claim: 0,
            next_order: 0,
            next_customer: 0,
            customer_pool: customer_pool.max(1),
        }
    }

    pub fn claim(&mut self) -> Claim {
        let seq = self.next_claim;
        self.next_claim += 1;
        let r = &mut self.claims;
        let amount = match burst_slot(seq) {
            Some(slot) if slot % TOP_EVERY == 0 => r.range(4_900, 5_000),
            Some(_) => r.range(3_000, 4_900),
            None => r.range(50, 4_000),
        };
        let mut claim = Claim {
            claim_no: 500_000 + seq as i64,
            claimant: person(r),
            city: r.pick(CITIES),
            amount,
            make: r.pick(MAKES),
            year: r.range(1995, 2007),
            part: r.pick(PARTS),
            action: r.pick(ACTIONS),
            detail: r.pick(DETAILS),
            json: String::new(),
        };
        claim.json = claim.render();
        claim
    }

    pub fn order(&mut self) -> Order {
        let seq = self.next_order;
        self.next_order += 1;
        let r = &mut self.orders;
        let mut order = Order {
            order_id: 100_000 + seq as i64,
            cust: r.below(u64::from(self.customer_pool)) as u32,
            sku: product_code(r),
            qty: r.range(1, 20),
            total: r.range(500, 50_000),
            json: String::new(),
        };
        order.json = order.render();
        order
    }

    pub fn customer(&mut self) -> Customer {
        let code = self.next_customer;
        self.next_customer += 1;
        let r = &mut self.customers;
        Customer {
            code,
            name: person(r),
            city: r.pick(CITIES),
            tier: r.pick(TIERS),
        }
    }

    /// A call-centre transcript naming a person, a place, a product and a
    /// date (what the entity annotator looks for) and, half the time, the
    /// damaged part, so the `mid` terms span two collections.
    pub fn call(&mut self) -> String {
        let r = &mut self.calls;
        let who = person(r);
        let place = r.pick(CITIES);
        let product = product_code(r);
        let phrase = r.pick(CALL_PHRASES);
        let part = if r.below(2) == 0 {
            format!(" The {} was mentioned.", r.pick(PARTS))
        } else {
            String::new()
        };
        format!(
            "Call transcript: {who} calling from {place} about product {product}. Customer said: \
             {phrase}.{part} Follow up on {}-{:02}-{:02}.",
            r.range(2005, 2008),
            r.range(1, 13),
            r.range(1, 29),
        )
    }

    pub fn mail(&mut self) -> String {
        let r = &mut self.mail;
        let from = person(r).to_lowercase().replace(' ', ".");
        let to = person(r).to_lowercase().replace(' ', ".");
        let partner = r.pick(PARTNERS);
        let topic = r.pick(TOPICS);
        let product = product_code(r);
        format!(
            "From: {from}@example.com\nTo: {to}@example.com\nSubject: {partner} {topic}\n\n\
             Regarding the {topic} with {partner}: the delivery of {product} is confirmed for \
             next quarter. Keep this thread for the compliance archive.\n"
        )
    }

    pub fn doc(&mut self, kind: Kind) -> Doc {
        match kind {
            Kind::Claim => Doc::Claim(self.claim()),
            Kind::Order => Doc::Order(self.order()),
            Kind::Customer => Doc::Customer(self.customer()),
            Kind::Call => Doc::Call(self.call()),
            Kind::Mail => Doc::Mail(self.mail()),
        }
    }

    /// `counts[kind]` documents of each kind, interleaved. The order of
    /// kinds is one fixed shuffle for every seed, so what a sealed segment
    /// holds of each kind (and so what a scan must read) is the same for
    /// every seed; the documents themselves are the seed's.
    pub fn stream(&mut self, counts: [usize; 5]) -> Vec<Doc> {
        let mut kinds: Vec<Kind> = KINDS
            .iter()
            .flat_map(|&k| std::iter::repeat_n(k, counts[k as usize]))
            .collect();
        Rng::new(0, 6).shuffle(&mut kinds);
        kinds.into_iter().map(|k| self.doc(k)).collect()
    }
}

/// The shared store's contents at scale 1: 8,000 claims, 8,000 orders,
/// 500 customers, 2,000 calls, 2,000 mails.
pub const STORE_COUNTS: [usize; 5] = [8_000, 8_000, 500, 2_000, 2_000];

/// Shares of the mixed-format stream (`bulk_ingest`, the `mixed_ops`
/// writer), in percent: 40 JSON claims, 25 JSON orders, 10 relational
/// rows, 15 text, 10 e-mail.
pub const MIX_PERCENT: [usize; 5] = [40, 25, 10, 15, 10];

/// `n` documents split by [`MIX_PERCENT`]; rounding remainders go to claims.
pub fn mix_counts(n: usize) -> [usize; 5] {
    let mut counts = MIX_PERCENT.map(|p| n * p / 100);
    counts[0] += n - counts.iter().sum::<usize>();
    counts
}

/// `STORE_COUNTS` scaled by `num/den`, at least one of each kind.
pub fn store_counts(num: usize, den: usize) -> [usize; 5] {
    STORE_COUNTS.map(|c| (c * num / den).max(1))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(seed: u64) -> Vec<Doc> {
        Generator::new(seed, 50).stream(mix_counts(400))
    }

    #[test]
    fn same_seed_same_bytes_other_seed_other_bytes() {
        assert_eq!(sample(42), sample(42));
        assert_ne!(sample(42), sample(43));
    }

    #[test]
    fn streams_are_independent_of_each_other() {
        // drawing orders first must not move the claims
        let mut a = Generator::new(7, 10);
        let mut b = Generator::new(7, 10);
        for _ in 0..5 {
            b.order();
            b.call();
        }
        assert_eq!(a.claim(), b.claim());
    }

    #[test]
    fn mix_counts_add_up() {
        for n in [5, 99, 1_000, 80_000] {
            assert_eq!(mix_counts(n).iter().sum::<usize>(), n);
        }
        assert_eq!(mix_counts(100), [40, 25, 10, 15, 10]);
    }

    #[test]
    fn large_amounts_cluster_in_bursts() {
        let mut g = Generator::new(1, 10);
        let mut top = 0;
        for seq in 0..2 * CLAIM_PERIOD {
            let c = g.claim();
            let in_burst = (BURST_START..BURST_START + BURST_LEN).contains(&(seq % CLAIM_PERIOD));
            assert_eq!(
                c.amount >= 3_000 && in_burst,
                in_burst,
                "claim {seq}: {}",
                c.amount
            );
            assert!(in_burst || c.amount < 4_000, "claim {seq}: {}", c.amount);
            top += usize::from(c.amount >= 4_900);
        }
        assert_eq!(top as u64, 2 * BURST_LEN / TOP_EVERY);
    }

    #[test]
    fn the_interleaving_of_kinds_does_not_depend_on_the_seed() {
        let kinds = |seed| -> Vec<Kind> { sample(seed).iter().map(Doc::kind).collect() };
        assert_eq!(kinds(1), kinds(2));
    }

    #[test]
    fn generated_json_parses_and_keeps_its_fields() {
        let mut g = Generator::new(3, 10);
        for _ in 0..50 {
            let c = g.claim();
            let node = impliance_docmodel::json::parse(c.json()).expect("claim parses");
            assert_eq!(
                node.get_str_path("vehicle.make").and_then(|n| n.as_value()),
                Some(&Value::Str(c.make.to_string()))
            );
            let o = g.order();
            let node = impliance_docmodel::json::parse(o.json()).expect("order parses");
            assert_eq!(
                node.get_str_path("total").and_then(|n| n.as_value()),
                Some(&Value::Int(o.total))
            );
        }
    }
}

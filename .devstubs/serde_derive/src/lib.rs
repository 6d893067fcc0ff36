//! Offline stub of `serde_derive`: emits empty marker impls of the stub
//! `serde` traits. No `syn`/`quote` — the only thing needed from the item
//! is its type name, which is the identifier following `struct`/`enum`.
//! Generic types are unsupported (none in this workspace derive serde).
//! `#[serde(..)]` attributes are accepted and ignored, so a type can state
//! how the real derive would treat it.

use proc_macro::{TokenStream, TokenTree};

#[proc_macro_derive(Serialize, attributes(serde))]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    let name = type_name(input);
    format!("impl ::serde::Serialize for {name} {{}}")
        .parse()
        .expect("valid impl tokens")
}

#[proc_macro_derive(Deserialize, attributes(serde))]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    let name = type_name(input);
    format!("impl<'de> ::serde::Deserialize<'de> for {name} {{}}")
        .parse()
        .expect("valid impl tokens")
}

fn type_name(input: TokenStream) -> String {
    let mut iter = input.into_iter();
    while let Some(tt) = iter.next() {
        if let TokenTree::Ident(id) = &tt {
            let kw = id.to_string();
            if kw == "struct" || kw == "enum" {
                match iter.next() {
                    Some(TokenTree::Ident(name)) => return name.to_string(),
                    other => panic!("expected type name after `{kw}`, got {other:?}"),
                }
            }
        }
    }
    panic!("serde_derive stub: no `struct` or `enum` found in derive input")
}

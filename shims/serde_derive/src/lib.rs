//! Offline stand-in for `serde_derive`.
//!
//! Implements `#[derive(Serialize)]` and `#[derive(Deserialize)]` for the
//! shapes this workspace actually serializes — named-field structs and
//! one-field tuple structs (newtypes) — and answers anything else (enums,
//! unit structs, wider tuple structs, generics) with a `compile_error!`
//! naming the type. The generated code targets the value-tree traits of
//! the sibling `serde` shim and mirrors real serde's representation (a
//! struct is an object, a newtype is its field), so swapping the real
//! crates back in keeps the JSON wire format compatible.
//!
//! Built on raw `proc_macro` because `syn`/`quote` are unavailable offline:
//! the input item is tokenized by hand, and the impl is emitted as a string
//! that is parsed back into a `TokenStream`. Generics are not supported
//! (none of the workspace's serialized types are generic).

use proc_macro::{Delimiter, TokenStream, TokenTree};

#[derive(Debug)]
enum Item {
    NamedStruct { name: String, fields: Vec<String> },
    Newtype { name: String },
}

/// Derives `serde::Serialize`.
#[proc_macro_derive(Serialize)]
pub fn derive_serialize(input: TokenStream) -> TokenStream {
    match parse_item(input) {
        Ok(item) => gen_serialize(&item)
            .parse()
            .expect("generated Serialize impl parses"),
        Err(msg) => compile_error(&msg),
    }
}

/// Derives `serde::Deserialize`.
#[proc_macro_derive(Deserialize)]
pub fn derive_deserialize(input: TokenStream) -> TokenStream {
    match parse_item(input) {
        Ok(item) => gen_deserialize(&item)
            .parse()
            .expect("generated Deserialize impl parses"),
        Err(msg) => compile_error(&msg),
    }
}

fn compile_error(msg: &str) -> TokenStream {
    format!("compile_error!({msg:?});")
        .parse()
        .expect("compile_error parses")
}

// --- parsing ---------------------------------------------------------------

/// Consumes leading `#[...]` attributes.
fn skip_attrs(tokens: &[TokenTree], mut pos: usize) -> usize {
    while let [TokenTree::Punct(p), TokenTree::Group(g), ..] = &tokens[pos..] {
        if p.as_char() != '#' || g.delimiter() != Delimiter::Bracket {
            break;
        }
        pos += 2;
    }
    pos
}

/// Consumes an optional `pub` / `pub(...)` visibility.
fn skip_visibility(tokens: &[TokenTree], mut pos: usize) -> usize {
    if matches!(&tokens[pos..], [TokenTree::Ident(i), ..] if i.to_string() == "pub") {
        pos += 1;
        if matches!(&tokens[pos..], [TokenTree::Group(g), ..] if g.delimiter() == Delimiter::Parenthesis)
        {
            pos += 1;
        }
    }
    pos
}

/// Consumes a type (or any expression-ish run) up to a top-level `,`,
/// tracking `<...>` nesting so commas inside generics do not terminate it.
fn skip_type(tokens: &[TokenTree], mut pos: usize) -> usize {
    let mut angle_depth = 0i32;
    while pos < tokens.len() {
        if let TokenTree::Punct(p) = &tokens[pos] {
            match p.as_char() {
                '<' => angle_depth += 1,
                '>' => angle_depth -= 1,
                ',' if angle_depth == 0 => break,
                _ => {}
            }
        }
        pos += 1;
    }
    pos
}

/// Parses the field names of a named struct's `{ ... }` body.
fn parse_named_fields(body: TokenStream) -> Result<Vec<String>, String> {
    let tokens: Vec<TokenTree> = body.into_iter().collect();
    let mut fields = Vec::new();
    let mut pos = 0;
    while pos < tokens.len() {
        pos = skip_visibility(&tokens, skip_attrs(&tokens, pos));
        let TokenTree::Ident(name) = &tokens[pos] else {
            return Err(format!("expected field name, found {:?}", tokens[pos]));
        };
        pos += 1;
        match &tokens[pos] {
            TokenTree::Punct(p) if p.as_char() == ':' => pos += 1,
            other => return Err(format!("expected `:` after field name, found {other:?}")),
        }
        pos = skip_type(&tokens, pos);
        if pos < tokens.len() {
            pos += 1; // consume `,`
        }
        fields.push(name.to_string());
    }
    Ok(fields)
}

/// Counts the top-level comma-separated fields of a `( ... )` body.
fn tuple_arity(body: TokenStream) -> usize {
    let tokens: Vec<TokenTree> = body.into_iter().collect();
    let mut arity = 0;
    let mut pos = 0;
    while pos < tokens.len() {
        pos = skip_visibility(&tokens, skip_attrs(&tokens, pos));
        if pos >= tokens.len() {
            break;
        }
        pos = skip_type(&tokens, pos);
        arity += 1;
        if pos < tokens.len() {
            pos += 1; // consume `,`
        }
    }
    arity
}

fn parse_item(input: TokenStream) -> Result<Item, String> {
    let tokens: Vec<TokenTree> = input.into_iter().collect();
    let mut pos = skip_visibility(&tokens, skip_attrs(&tokens, 0));
    let kind = match &tokens[pos] {
        TokenTree::Ident(i) => i.to_string(),
        other => return Err(format!("expected `struct` or `enum`, found {other:?}")),
    };
    pos += 1;
    let name = match &tokens[pos] {
        TokenTree::Ident(i) => i.to_string(),
        other => return Err(format!("expected item name, found {other:?}")),
    };
    pos += 1;
    if matches!(&tokens.get(pos), Some(TokenTree::Punct(p)) if p.as_char() == '<') {
        return Err(format!(
            "serde shim derive does not support generic type `{name}`"
        ));
    }
    match (kind.as_str(), tokens.get(pos)) {
        ("struct", Some(TokenTree::Group(g))) if g.delimiter() == Delimiter::Brace => {
            Ok(Item::NamedStruct {
                name,
                fields: parse_named_fields(g.stream())?,
            })
        }
        ("struct", Some(TokenTree::Group(g)))
            if g.delimiter() == Delimiter::Parenthesis && tuple_arity(g.stream()) == 1 =>
        {
            Ok(Item::Newtype { name })
        }
        _ => Err(format!(
            "serde shim derive supports named-field structs and one-field \
             tuple structs only; `{name}` is neither"
        )),
    }
}

// --- codegen ---------------------------------------------------------------

fn gen_serialize(item: &Item) -> String {
    match item {
        Item::NamedStruct { name, fields } => {
            let mut body = String::from("let mut m = ::serde::Map::new();\n");
            for f in fields {
                body.push_str(&format!(
                    "m.insert({f:?}.to_string(), ::serde::Serialize::to_value(&self.{f}));\n"
                ));
            }
            body.push_str("::serde::Value::Object(m)");
            impl_serialize(name, &body)
        }
        Item::Newtype { name } => impl_serialize(name, "::serde::Serialize::to_value(&self.0)"),
    }
}

fn impl_serialize(name: &str, body: &str) -> String {
    format!(
        "#[automatically_derived]\n\
         impl ::serde::Serialize for {name} {{\n\
         fn to_value(&self) -> ::serde::Value {{\n{body}\n}}\n\
         }}\n"
    )
}

fn gen_deserialize(item: &Item) -> String {
    match item {
        Item::NamedStruct { name, fields } => {
            let mut inits = String::new();
            for f in fields {
                inits.push_str(&format!(
                    "{f}: match obj.get({f:?}) {{\n\
                     ::std::option::Option::Some(v) => ::serde::Deserialize::from_value(v)?,\n\
                     ::std::option::Option::None => return ::std::result::Result::Err(\
                     ::serde::DeError::missing_field({f:?}, {name:?})),\n\
                     }},\n"
                ));
            }
            let body = format!(
                "let obj = v.as_object().ok_or_else(|| ::serde::DeError::expected(\"object\", {name:?}))?;\n\
                 ::std::result::Result::Ok({name} {{\n{inits}}})"
            );
            impl_deserialize(name, &body)
        }
        Item::Newtype { name } => impl_deserialize(
            name,
            &format!("::std::result::Result::Ok({name}(::serde::Deserialize::from_value(v)?))"),
        ),
    }
}

fn impl_deserialize(name: &str, body: &str) -> String {
    format!(
        "#[automatically_derived]\n\
         impl ::serde::Deserialize for {name} {{\n\
         fn from_value(v: &::serde::Value) -> ::std::result::Result<Self, ::serde::DeError> {{\n{body}\n}}\n\
         }}\n"
    )
}
